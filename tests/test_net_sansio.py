"""Sans-io vocabulary, the reference in-process runner, and the stepping
rule every real driver's loop shares with it."""

import pytest

from repro.errors import RemoteError, VersionNotPublished
from repro.net.message import estimate_size
from repro.net.aio import AioDriver
from repro.net.sansio import Batch, Call, Compute, Mark, dispatch_call, run_inproc
from repro.net.threaded import ThreadedDriver


class Echo:
    """Toy actor: echoes, doubles, or explodes."""

    def handle(self, method, args):
        if method == "echo":
            return args[0]
        if method == "double":
            return args[0] * 2
        if method == "boom":
            raise RuntimeError("kapow")
        if method == "typed_boom":
            raise VersionNotPublished("blob-x", 9, 2)
        raise ValueError(f"unknown {method}")


REG = {"svc": Echo(), ("svc", 2): Echo()}


class TestVocabulary:
    def test_call_payload_estimate_from_args(self):
        call = Call("svc", "echo", (b"abcd",))
        assert call.payload_bytes() == 8 + 4  # tuple overhead + bytes

    def test_call_payload_override(self):
        call = Call("svc", "echo", (b"abcd",), request_bytes=999)
        assert call.payload_bytes() == 999

    def test_batch_from_iterable(self):
        b = Batch(Call("svc", "echo", (i,)) for i in range(3))
        assert len(b) == 3

    def test_estimate_size_structures(self):
        assert estimate_size(b"abc") == 3
        assert estimate_size(bytearray(b"abcd")) == 4
        assert estimate_size(memoryview(b"ab")) == 2
        assert estimate_size(None) == 16
        assert estimate_size([b"ab", b"cd"]) == 8 + 4
        assert estimate_size({"k": b"abc"}) > 3


class TestDispatch:
    def test_value_passthrough(self):
        assert dispatch_call(Echo(), Call("svc", "double", (21,))) == 42

    def test_exception_wrapped(self):
        res = dispatch_call(Echo(), Call("svc", "boom"))
        assert isinstance(res, RemoteError)
        assert res.error_type == "RuntimeError"
        assert isinstance(res.original, RuntimeError)

    def test_unwrap_semantic_error(self):
        res = dispatch_call(Echo(), Call("svc", "typed_boom"))
        assert isinstance(res.unwrap(), VersionNotPublished)

    def test_unwrap_infrastructure_error(self):
        res = dispatch_call(Echo(), Call("svc", "boom"))
        assert res.unwrap() is res


class _SteppingRule:
    """The stepping rule every real loop shares (``sansio.step``): a
    subclass supplies ``run(proto)``, and each runner must agree."""

    def test_compute_is_noop(self):
        def proto():
            yield Compute("anything", 5)
            (v,) = yield Batch([Call("svc", "echo", ("ok",))])
            return v

        assert self.run(proto()) == "ok"

    def test_mark_returns_time(self):
        def proto():
            t1 = yield Mark("a")
            t2 = yield Mark("b")
            return t1, t2

        t1, t2 = self.run(proto())
        assert isinstance(t1, float) and t2 >= t1

    def test_error_raised_at_yield_point(self):
        def proto():
            try:
                yield Batch([Call("svc", "boom")])
            except RemoteError as exc:
                return f"caught {exc.error_type}"

        assert self.run(proto()) == "caught RuntimeError"

    def test_semantic_error_typed_at_yield_point(self):
        def proto():
            try:
                yield Batch([Call("svc", "typed_boom")])
            except VersionNotPublished as exc:
                return exc.latest

        assert self.run(proto()) == 2

    def test_bad_yield_type_raises(self):
        def proto():
            yield 42  # type: ignore[misc]

        with pytest.raises(TypeError):
            self.run(proto())

    def test_non_op_after_a_batch_raises(self):
        def proto():
            yield Batch([Call("svc", "echo", (1,))])
            yield "not an op"  # type: ignore[misc]

        with pytest.raises(TypeError, match="expected Batch or Compute"):
            self.run(proto())


class TestRunInproc(_SteppingRule):
    def run(self, proto):
        return run_inproc(proto, REG)

    def test_simple_protocol(self):
        def proto():
            (a, b) = yield Batch(
                [Call("svc", "echo", (1,)), Call(("svc", 2), "double", (2,))]
            )
            return a + b

        assert run_inproc(proto(), REG) == 5

    def test_allow_error_delivers_wrapper(self):
        def proto():
            (res,) = yield Batch([Call("svc", "boom", allow_error=True)])
            return isinstance(res, RemoteError)

        assert run_inproc(proto(), REG) is True

    def test_unknown_address_raises(self):
        def proto():
            yield Batch([Call("ghost", "echo", (1,))])

        with pytest.raises(KeyError):
            run_inproc(proto(), REG)

    def test_results_in_call_order(self):
        def proto():
            results = yield Batch(
                [Call("svc", "echo", (i,)) for i in range(10)]
            )
            return results

        assert run_inproc(proto(), REG) == list(range(10))


class _OnARealDriver(_SteppingRule):
    """The rule on a real driver's loop, with the actors in-parent."""

    @pytest.fixture(autouse=True)
    def driver(self):
        self._driver = self.driver_class(REG)
        yield
        self._driver.close()

    def run(self, proto):
        return self._driver.run(proto)


class TestThreadedDriverRun(_OnARealDriver):
    driver_class = ThreadedDriver


class TestAioDriverRun(_OnARealDriver):
    driver_class = AioDriver
