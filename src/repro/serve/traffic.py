"""The compile service's hot request set.

The e2e ``serve`` workload (``benchmarks/e2e/serveload.py``) and the
service tests (``tests/serve/test_service.py``) draw their hot requests
from these kernels on these targets.
"""

#: Hot-set kernels: small, fast to compile, available on every target.
HOT_KERNELS = ("real_update", "dot_product", "fir")
DEFAULT_TARGETS = ("tc25", "m56", "risc16", "asip")
