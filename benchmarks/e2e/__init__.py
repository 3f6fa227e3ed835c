"""End-to-end benchmark of the RECORD reproduction (see README.md)."""
