"""The compile service, in-process: dedup layers, identity, failure.

``CompileService.handle`` is exercised without sockets, which makes the
dedup ladder directly observable: the first request for an artifact is
``farm``, concurrent duplicates are ``coalesced``, later repeats are
``cache`` -- and every one of them returns byte-identical results to
a direct ``repro.api`` call.  The service's three contracts run on the
serial farm and on a 2-worker process pool (``POOLS``): each artifact
is farm-compiled at most once, an identical second pass never reaches
the farm, and served results equal ``repro.api``'s.
"""

from __future__ import annotations

import asyncio
import random

import pytest

import repro.cache
from repro.serve.server import CompileService, canonical_target_name
from repro.serve.traffic import DEFAULT_TARGETS, HOT_KERNELS

#: Service arguments: the serial in-process farm, and a 2-worker
#: process pool.
POOLS = pytest.mark.parametrize(
    "pool", [{"use_pool": False}, {"use_pool": True, "workers": 2}],
    ids=["serial", "pool2"])


@pytest.fixture()
def service_factory(tmp_path):
    """Build services (serial unless asked for a pool) on a private
    cache dir; undo the service's global cache configuration
    afterwards."""
    previous = repro.cache._ACTIVE
    services = []

    def build(**kwargs):
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("use_pool", False)
        kwargs.setdefault("window", 0.005)
        service = CompileService(**kwargs)
        # A pool that failed to start leaves a serial service, which
        # would pass the pool cases without testing the pool.
        assert (service.pool is not None) == kwargs["use_pool"]
        services.append(service)
        return service

    yield build
    repro.cache._ACTIVE = previous


def run(coroutine):
    return asyncio.run(coroutine)


def compile_payload(request_id, kernel="real_update", target="tc25",
                    **extra):
    return {"id": request_id, "op": "compile", "kernel": kernel,
            "target": target, "compiler": "record", **extra}


# ----------------------------------------------------------------------
# The dedup ladder: farm -> coalesced -> cache
# ----------------------------------------------------------------------

@POOLS
def test_first_request_farms_then_repeats_hit_cache(service_factory,
                                                    pool):
    async def scenario():
        service = service_factory(**pool)
        try:
            first = await service.handle(compile_payload(1))
            again = await service.handle(compile_payload(2))
            return first, again
        finally:
            await service.close()

    first, again = run(scenario())
    assert first["ok"] and first["served_by"] == "farm"
    assert again["ok"] and again["served_by"] == "cache"
    assert again["result"] == first["result"]
    assert again["key"] == first["key"]


@POOLS
def test_concurrent_duplicates_coalesce_onto_one_compile(
        service_factory, pool):
    async def scenario():
        service = service_factory(**pool)
        try:
            responses = await asyncio.gather(*[
                service.handle(compile_payload(index))
                for index in range(5)])
            return responses, service.stats
        finally:
            await service.close()

    responses, stats = run(scenario())
    served = sorted(response["served_by"] for response in responses)
    assert served.count("farm") == 1
    assert served.count("coalesced") + served.count("cache") == 4
    assert stats.coalesced + stats.cache_hits == 4
    listings = {response["result"]["listing"]
                for response in responses}
    assert len(listings) == 1


def test_asip_alias_keys_match_worker_store(service_factory):
    """Regression: the request alias 'asip' resolves to a decorated
    target name; the hot path must key on the resolved name or asip
    cells recompile forever (the other aliases match by accident)."""
    assert canonical_target_name("asip") != "asip"
    assert canonical_target_name("tc25") == "tc25"

    async def scenario():
        service = service_factory()
        try:
            first = await service.handle(
                compile_payload(1, target="asip"))
            again = await service.handle(
                compile_payload(2, target="asip"))
            return first, again
        finally:
            await service.close()

    first, again = run(scenario())
    assert first["served_by"] == "farm"
    assert again["served_by"] == "cache"


def test_kernel_and_spec_forms_share_one_artifact(service_factory):
    """The same program arriving by registry name and by serialized
    spec must land on the same content key (second form is hot)."""
    from repro.dspstone import kernel
    from repro.verify.corpus import program_to_spec
    spec = program_to_spec(kernel("real_update").program)

    async def scenario():
        service = service_factory()
        try:
            by_name = await service.handle(compile_payload(1))
            by_spec = await service.handle({
                "id": 2, "op": "compile", "program": spec,
                "target": "tc25", "compiler": "record"})
            return by_name, by_spec
        finally:
            await service.close()

    by_name, by_spec = run(scenario())
    assert by_name["served_by"] == "farm"
    assert by_spec["served_by"] == "cache"
    assert by_spec["result"]["listing"] == \
        by_name["result"]["listing"]


# ----------------------------------------------------------------------
# Identity against the direct API
# ----------------------------------------------------------------------

@POOLS
def test_compile_and_simulate_match_direct_api(service_factory, pool):
    """Every hot kernel on every target: the served listing, word count,
    outputs and cycles on both fast tiers equal a direct compile's."""
    from repro.api import compile_kernel
    from repro.dspstone import kernel
    cells = [(name, target) for name in HOT_KERNELS
             for target in DEFAULT_TARGETS]
    inputs = {name: kernel(name).inputs(seed=3) for name in HOT_KERNELS}
    direct = {(name, target): compile_kernel(name, target=target)
              for name, target in cells}

    async def scenario():
        service = service_factory(**pool)
        try:
            return await asyncio.gather(*[
                asyncio.gather(
                    service.handle(compile_payload(
                        1, kernel=name, target=target)),
                    *[service.handle({
                        "id": 2, "op": "simulate", "kernel": name,
                        "target": target, "compiler": "record",
                        "inputs": inputs[name], "sim": sim})
                      for sim in ("jit", "fast")])
                for name, target in cells])
        finally:
            await service.close()

    for (name, target), (compiled, *simulated) in zip(
            cells, run(scenario())):
        expected = direct[name, target]
        outputs, cycles = expected.run(inputs[name])
        assert compiled["result"]["listing"] == expected.listing(), \
            (name, target)
        assert compiled["result"]["words"] == expected.words()
        for response in simulated:
            assert response["result"]["outputs"] == outputs, \
                (name, target, response["result"]["sim"])
            assert response["result"]["cycles"] == cycles


def mixed_requests():
    """(cell, payload) pairs: compile and simulate (jit and fast) for
    every hot kernel on every target and for three novel generated
    programs.  A cell is one (program, target) artifact."""
    from repro.dspstone import kernel
    from repro.verify.corpus import program_to_spec
    from repro.verify.progen import generate_inputs, generate_program
    programs = [((name, target), {"kernel": name, "target": target},
                 kernel(name).inputs(seed=0))
                for name in HOT_KERNELS for target in DEFAULT_TARGETS]
    for index in range(3):
        rng = random.Random(index)
        program = generate_program(rng, index)
        target = DEFAULT_TARGETS[index % len(DEFAULT_TARGETS)]
        programs.append(((program.name, target),
                         {"program": program_to_spec(program),
                          "target": target},
                         generate_inputs(rng, program)))
    requests = []
    for cell, base, inputs in programs:
        base = {**base, "compiler": "record"}
        requests.append((cell, {**base, "op": "compile"}))
        requests.extend((cell, {**base, "op": "simulate",
                                "inputs": inputs, "sim": sim})
                        for sim in ("jit", "fast"))
    return requests


@POOLS
def test_mixed_two_pass_farms_each_artifact_once(service_factory, pool):
    """Two identical concurrent passes of hot and novel requests: the
    first farm-compiles each (program, target) at most once, the second
    never reaches the farm and answers as the first did."""
    requests = mixed_requests()

    async def scenario():
        service = service_factory(**pool)
        try:
            passes = []
            for _ in range(2):
                passes.append(await asyncio.gather(*[
                    service.handle(payload)
                    for _cell, payload in requests]))
            return passes
        finally:
            await service.close()

    first, second = run(scenario())
    assert all(response["ok"] for response in first + second)
    farmed = [cell for (cell, _payload), response in zip(requests, first)
              if response["served_by"] == "farm"]
    assert len(farmed) == len(set(farmed))
    assert {cell for cell, _payload in requests} == set(farmed)
    assert {response["served_by"] for response in second} \
        <= {"cache", "coalesced"}
    assert [response["result"] for response in second] \
        == [response["result"] for response in first]


def test_verify_op_reports_clean_matrix(service_factory):
    from repro.dspstone import kernel
    from repro.verify.corpus import program_to_spec
    spec = program_to_spec(kernel("real_update").program)
    inputs = kernel("real_update").inputs(seed=1)

    async def scenario():
        service = service_factory()
        try:
            first, second = await asyncio.gather(
                service.handle({"id": 1, "op": "verify",
                                "program": spec,
                                "input_sets": [inputs],
                                "targets": ["tc25", "risc16"]}),
                service.handle({"id": 2, "op": "verify",
                                "program": spec,
                                "input_sets": [inputs],
                                "targets": ["tc25", "risc16"]}))
            return first, second
        finally:
            await service.close()

    first, second = run(scenario())
    assert first["ok"] and first["result"]["ok"]
    assert first["result"]["cells"] > 0
    assert first["result"]["mismatches"] == []
    # identical concurrent verifies coalesce on the verify key
    served = sorted((first["served_by"], second["served_by"]))
    assert served == ["coalesced", "farm"]
    assert second["result"] == first["result"]


# ----------------------------------------------------------------------
# Cancellation: a dead client must not poison shared work
# ----------------------------------------------------------------------

def test_cancelled_owner_leaves_peers_and_store_intact(
        service_factory):
    """The first requester disconnects mid-compile: the coalesced
    peer still gets its artifact and the store still goes hot."""
    async def scenario():
        service = service_factory()
        try:
            owner = asyncio.ensure_future(
                service.handle(compile_payload(1, kernel="fir")))
            for _ in range(400):
                if service._artifact_inflight:
                    break
                await asyncio.sleep(0.005)
            assert service._artifact_inflight, "owner never registered"
            peer = asyncio.ensure_future(
                service.handle(compile_payload(2, kernel="fir")))
            await asyncio.sleep(0.01)
            owner.cancel()
            peer_response = await peer
            # The cancel may land too late (the compile finished in
            # the same loop tick); both outcomes are legal -- what
            # matters is that the peer and the store are unharmed.
            try:
                owner_response = await owner
                assert owner_response["ok"]
            except asyncio.CancelledError:
                pass
            repeat = await service.handle(
                compile_payload(3, kernel="fir"))
            return peer_response, repeat
        finally:
            await service.close()

    peer_response, repeat = run(scenario())
    assert peer_response["ok"]
    assert peer_response["served_by"] in ("coalesced", "cache")
    assert repeat["served_by"] == "cache"


def test_cancelled_waiter_does_not_cancel_shared_compile(
        service_factory):
    """A coalesced waiter disconnects: the owner and the artifact are
    unaffected (the shield points the right way)."""
    async def scenario():
        service = service_factory()
        try:
            owner = asyncio.ensure_future(
                service.handle(compile_payload(1, kernel="fir")))
            for _ in range(400):
                if service._artifact_inflight:
                    break
                await asyncio.sleep(0.005)
            waiter = asyncio.ensure_future(
                service.handle(compile_payload(2, kernel="fir")))
            await asyncio.sleep(0.01)
            waiter.cancel()
            owner_response = await owner
            try:
                waiter_response = await waiter
                assert waiter_response["ok"]   # cancel landed too late
            except asyncio.CancelledError:
                pass
            return owner_response
        finally:
            await service.close()

    owner_response = run(scenario())
    assert owner_response["ok"]
    assert owner_response["served_by"] == "farm"


# ----------------------------------------------------------------------
# Failure envelopes
# ----------------------------------------------------------------------

def test_errors_become_envelopes_and_service_survives(
        service_factory):
    async def scenario():
        service = service_factory()
        try:
            bad_protocol = await service.handle({"op": "frobnicate",
                                                 "id": 1})
            bad_kernel = await service.handle(
                compile_payload(2, kernel="no_such_kernel"))
            alive = await service.handle({"id": 3, "op": "ping"})
            return bad_protocol, bad_kernel, alive, service.stats
        finally:
            await service.close()

    bad_protocol, bad_kernel, alive, stats = run(scenario())
    assert not bad_protocol["ok"]
    assert bad_protocol["error_type"] == "ProtocolError"
    assert not bad_kernel["ok"]
    assert bad_kernel["id"] == 2
    assert alive["ok"] and alive["result"] == {"pong": True}
    assert stats.errors == 2


def test_malformed_verify_targets_get_a_protocol_error(service_factory):
    async def scenario():
        service = service_factory()
        try:
            before = service.stats.errors
            response = await service.handle(
                {"id": 7, "op": "verify", "kernel": "real_update",
                 "targets": 5})
            return response, service.stats.errors - before
        finally:
            await service.close()

    response, new_errors = run(scenario())
    assert not response["ok"]
    assert response["id"] == 7
    assert response["error_type"] == "ProtocolError"
    assert new_errors == 1


def test_stats_snapshot_has_dedup_counters(service_factory):
    async def scenario():
        service = service_factory()
        try:
            await service.handle(compile_payload(1))
            await service.handle(compile_payload(2))
            return service.stats_json()
        finally:
            await service.close()

    snapshot = run(scenario())
    assert snapshot["pool"] == "serial"
    assert snapshot["cache_hits"] == 1
    assert snapshot["requests"] == 2
    assert snapshot["inflight"] == 0
    assert "compile_batcher" in snapshot and "cache" in snapshot
