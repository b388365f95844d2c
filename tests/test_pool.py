"""The worker pool (`lattice.pmap`) and the planned pads and products of
`nullform.combine_forms` (`lattice.planned_products`).

Every output must keep its bits at any NFLAB_THREADS, every image must be padded
exactly once, pads must pair the pass trees in order of first use, and no padded
image may outlive its evaluation.
"""

import ctypes
import functools
import gc
import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import nflab.lattice as lat
from nflab import nullform as nf
from nflab import probe as pr
from nflab.iterate import CauchyData, SystemSpec, apply_nonlinearity, picard_run
from nflab.lattice import SPACETIME, SPATIAL, make_grid, random_field
from nflab.multiplier import SpaceIndex
from nflab.nullform import BilinearFormSpec, apply_form
from nflab.probe import EmbeddingSpec, KernelSpec, probe_embedding, schur_ladder

TWO_PI = 2.0 * math.pi
THREADS = ("1", "2", "3")

FORMS = [BilinearFormSpec("q0"), BilinearFormSpec("qij", i=1, j=2), BilinearFormSpec("qtilde"),
         BilinearFormSpec("product"), BilinearFormSpec("ralpha", alpha=0.7),
         BilinearFormSpec("splus", alpha=0.7), BilinearFormSpec("sminus", alpha=0.7)]


def _pads(form: str, n: int) -> tuple:
    """(images, trees) a form pads for u != v: the distinct images, each padded once,
    and the pad trees, one per operand and one per R_0 R_j image."""
    return {"q0": (2 * (n + 1), 2), "qij": (4, 2), "qtilde": (2 * n + 2, 2 * n + 2),
            "product": (2, 2)}.get(form, (0, 0))


def _systems():
    rng = np.random.default_rng(3)

    def table(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    # name -> (spec, then for one evaluation on n = 3: its pads (the distinct images), the
    # operands they are images of (u^J and, for YMmodel and MKGmodel, D^-1 u^J) and its pad
    # trees (one per operand, and one per R_0 R_j image))
    return {
        "YMmodel": (SystemSpec("YMmodel", N=2, q_coeff=table(2, 3, 2, 2),
                               q_coeff_second=table(2, 3, 2, 2)), 12, 4, 4),
        "WMM": (SystemSpec("WMM", N=2, a_table=table(2, 2, 2)), 8, 2, 8),
        "WM": (SystemSpec("WM", N=2, gamma_const=table(2, 2, 2)), 8, 2, 2),
        "MKGmodel": (SystemSpec("MKGmodel", N1=1, N2=2), 9, 3, 3),
        "scalarQ0": (SystemSpec("scalarQ0"), 4, 1, 1),
    }


def _form_fields(n: int, real: bool):
    g = make_grid(n, 16, 16, TWO_PI, TWO_PI)
    return (random_field(g, SPACETIME, 1, max_freq=2, real=real),
            random_field(g, SPACETIME, 2, max_freq=2, real=real))


def _comps(spec, real: bool):
    # (3, 16, 8): fine images of 0.66 MB, past numpy's temporary-elision threshold
    g = make_grid(3, 16, 8, TWO_PI, TWO_PI)
    return [random_field(g, SPACETIME, 10 + c, max_freq=3, real=real) for c in range(spec.N)]


def _per_thread_count(monkeypatch, run):
    outs = []
    for threads in THREADS:
        monkeypatch.setenv("NFLAB_THREADS", threads)
        outs.append(run())
    return outs


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("real", [True, False])
def test_forms_keep_their_bits_at_every_thread_count(monkeypatch, n, real):
    u, v = _form_fields(n, real)
    for spec in FORMS:
        outs = _per_thread_count(monkeypatch, lambda: apply_form(spec, u, v))
        for out in outs[1:]:
            assert np.array_equal(out.coeffs, outs[0].coeffs), spec.form
            assert (out.real_flag, out.zero_mode_projected) == (outs[0].real_flag,
                                                                outs[0].zero_mode_projected)


@pytest.mark.parametrize("real", [True, False])
def test_nonlinearities_keep_their_bits_at_every_thread_count(monkeypatch, real):
    for name, (spec, *_) in _systems().items():
        comps = _comps(spec, real)
        outs = _per_thread_count(monkeypatch, lambda: apply_nonlinearity(spec, comps))
        for out in outs[1:]:
            assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(out, outs[0])), name


def test_picard_csvs_and_probe_reports_keep_their_bytes_at_every_thread_count(monkeypatch):
    g = make_grid(3, 16, 8, TWO_PI, TWO_PI)
    for name, (spec, *_) in _systems().items():
        data = []
        for c in range(spec.N):
            f = random_field(g, SPATIAL, 30 + c, max_freq=2, decay=2.0)
            P = lat.inverse_transform(f)
            zero = lat.transform(g, np.zeros(g.spatial_shape), SPATIAL)
            data.append(CauchyData(lat.transform(g, P * (0.05 / np.max(np.abs(P))), SPATIAL),
                                   zero))
        csvs = _per_thread_count(monkeypatch, lambda: picard_run(
            spec, data, 2, SpaceIndex(1.2, 0.6), g.T_per / 2.0).to_csv())
        assert csvs[1:] == csvs[:1] * 2, name
    g2 = make_grid(2, 8, 8, TWO_PI, TWO_PI)
    idx = SpaceIndex(1.2, 0.6)
    spec = EmbeddingSpec(left=idx, right=idx, target=SpaceIndex(0.8, 0.6), n=2,
                         form=BilinearFormSpec("q0"))
    for ensemble in ("cone-concentrated", "random-gaussian"):
        reports = _per_thread_count(monkeypatch, lambda: repr(
            probe_embedding(spec, ensemble, 3, g2, seed=5)))
        assert reports[1:] == reports[:1] * 2, ensemble


@pytest.mark.parametrize("real", [True, False])
def test_planning_moves_no_bit(monkeypatch, real):
    # the reference pads every image alone, in a tree of its own
    monkeypatch.setenv("NFLAB_THREADS", "2")
    u, v = _form_fields(3, real)
    cases = [(lambda s=s: apply_form(s, u, v).coeffs) for s in FORMS[:4]]
    for spec, *_ in _systems().values():
        comps = _comps(spec, real)
        cases.append(lambda spec=spec, comps=comps: [
            f.coeffs for f in apply_nonlinearity(spec, comps)])
    planned = [case() for case in cases]
    pad_tree = lat._pad_tree
    monkeypatch.setattr(lat, "_pad_tree", lambda tree: [
        image for op in tree[1] for image in pad_tree((tree[0], [op]))])
    for case, want in zip(cases, planned):
        assert np.array_equal(case(), want)


def test_a_product_in_a_spent_operand_keeps_the_bits_of_a_fresh_one(monkeypatch):
    # one image as both operands (q0(u, u)), real times complex (qtilde's R_0 R_j images of
    # real fields, q0 and the padded product of a real and a complex field) and complex times
    # real: the reference writes each product, scaled group sum and sum into a fresh array
    monkeypatch.setenv("NFLAB_THREADS", "2")
    (u, v), (w, _) = _form_fields(3, True), _form_fields(3, False)
    q0, qtilde, product = (BilinearFormSpec(form) for form in ("q0", "qtilde", "product"))
    cases = [(q0, u, u), (q0, w, w), (q0, u, w), (q0, w, u), (qtilde, u, v), (qtilde, u, w),
             (qtilde, w, u), (product, u, w), (product, w, u), (product, w, w)]
    got = [apply_form(*case).coeffs for case in cases]
    for module in (lat, nf):
        monkeypatch.setattr(module, "_into_spent", lambda ufunc, P, Q, spent=(): ufunc(P, Q))
    for case, out in zip(cases, got):
        assert np.array_equal(apply_form(*case).coeffs, out), case


def _counting_pads(monkeypatch):
    """(images, trees): the (operand, op) of each image a pad tree yields, and the (operand,
    root) of each tree, root None or the R_0 R_j of a one-leaf tree."""
    images, trees = [], []
    original = lat.fine_images

    def counting(f, ops, factor=1.5):
        roots = {op if op is not None and op[0] == "rr" else None for op in ops}
        assert len(roots) == 1  # a tree never mixes roots
        trees.append((f.coeffs.tobytes(), roots.pop()))
        images.extend((f.coeffs.tobytes(), op) for op in ops)
        return original(f, ops, factor)

    monkeypatch.setattr(lat, "fine_images", counting)
    return images, trees


@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_image_is_padded_once(monkeypatch, threads):
    monkeypatch.setenv("NFLAB_THREADS", threads)
    images, trees = _counting_pads(monkeypatch)

    def padded_once(what, pads, n_trees):
        assert len(images) == len(set(images)) == pads, what
        assert len(trees) == len(set(trees)) == n_trees, what
        images.clear()
        trees.clear()

    for n in (2, 3):
        for real in (True, False):
            u, v = _form_fields(n, real)
            for spec in FORMS:
                apply_form(spec, u, v)
                padded_once(spec.form, *_pads(spec.form, n))
            apply_form(BilinearFormSpec("q0"), u, u)
            padded_once("q0(u, u)", n + 1, 1)
    for name, (spec, pads, _, n_trees) in _systems().items():
        apply_nonlinearity(spec, _comps(spec, True))
        padded_once(name, pads, n_trees)


def test_each_operand_is_folded_once(monkeypatch):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    folds = []
    original = lat._folded_half_spectrum
    monkeypatch.setattr(lat, "_folded_half_spectrum", lambda Y: folds.append(1) or original(Y))
    for n in (2, 3):
        u, v = _form_fields(n, True)
        for spec in FORMS[:4]:
            folds.clear()
            apply_form(spec, u, v)
            assert len(folds) == 2, spec.form
    for name, (spec, _, operands, _) in _systems().items():
        folds.clear()
        apply_nonlinearity(spec, _comps(spec, True))
        assert len(folds) == operands, name


@pytest.mark.parametrize("real", [True, False])
def test_pads_pair_the_trees_in_order_of_first_use(monkeypatch, real):
    # each pmap call pads the first unpadded tree beside the next one; an R_0 R_j image is a
    # tree of its own, and a tree lists its images in order of first use
    monkeypatch.setenv("NFLAB_THREADS", "1")
    u, v = _form_fields(2, real)
    calls = []
    pmap, fine_images = lat.pmap, lat.fine_images
    monkeypatch.setattr(lat, "pmap", lambda func, items: calls.append([]) or pmap(func, items))

    def recorded(f, ops, factor=1.5):
        calls[-1].append(("u" if f is u else "v", list(ops)))
        return fine_images(f, ops, factor)

    monkeypatch.setattr(lat, "fine_images", recorded)
    apply_form(BilinearFormSpec("q0"), u, v)
    d = [("d", mu) for mu in range(3)]
    assert calls == [[("u", d), ("v", d)]]
    calls.clear()
    apply_form(BilinearFormSpec("qtilde"), u, v)
    r1, r2 = ("rr", 1), ("rr", 2)
    assert calls == [[("u", [r1]), ("v", [None])], [("u", [None]), ("v", [r1])],
                     [("u", [r2]), ("v", [r2])]]


def test_no_padded_image_outlives_its_evaluation(monkeypatch):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    pads = []
    fine_images = lat.fine_images

    def recorded(f, ops, factor=1.5):
        images = fine_images(f, ops, factor)
        pads.extend(map(weakref.ref, images))
        return images

    monkeypatch.setattr(lat, "fine_images", recorded)
    u, v = _form_fields(2, False)
    runs = [(spec.form, lambda spec=spec: apply_form(spec, u, v)) for spec in FORMS[:4]]
    runs += [(name, lambda spec=spec: apply_nonlinearity(spec, _comps(spec, True)))
             for name, (spec, *_) in _systems().items()]
    for name, run in runs:
        pads.clear()
        run()
        gc.collect()
        assert pads and all(ref() is None for ref in pads), name


def _finishes(target, seconds=20.0):
    out = []
    t = threading.Thread(target=lambda: out.append(target()), daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), "the pool deadlocked"
    return out[0]


def test_a_call_from_inside_an_item_runs_inline(monkeypatch):
    monkeypatch.setenv("NFLAB_THREADS", "2")

    def item(i):
        here = threading.get_ident()
        inner = lat.pmap(lambda j: (i * j, threading.get_ident() == here), range(4))
        return [x for x, _ in inner], all(same for _, same in inner)

    got = _finishes(lambda: lat.pmap(item, range(6)))
    assert got == [([i * j for j in range(4)], True) for i in range(6)]


def test_an_item_error_is_raised_after_the_other_items_finish(monkeypatch):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    finished = []

    def item(i):
        if i in (1, 3):
            raise KeyError(f"item {i}")
        time.sleep(0.02)
        finished.append(i)
        return i

    with pytest.raises(KeyError, match="item 1"):
        lat.pmap(item, range(6))
    assert sorted(finished) == [0, 2, 4, 5]
    # the pool still works
    assert _finishes(lambda: lat.pmap(lambda x: x * x, range(7))) == [x * x for x in range(7)]


def test_pmap_keeps_item_order_and_uses_a_worker(monkeypatch):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    barrier = threading.Barrier(2, timeout=10.0)
    callers = []

    def item(i):
        barrier.wait()  # both items run at once: one on the caller, one on a worker
        return i, threading.get_ident()

    def run():
        callers.append(threading.get_ident())
        return lat.pmap(item, range(2))

    got = _finishes(run)
    assert [i for i, _ in got] == [0, 1]
    assert sorted(ident == callers[0] for _, ident in got) == [False, True]


def test_every_item_runs_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval, so a lost update of the
    # shared item counter would run an item twice or skip it
    monkeypatch.setenv("NFLAB_THREADS", "8")
    lat._executor().shutdown()
    lat._executor.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        seen = [[] for _ in range(3000)]
        got = _finishes(lambda: lat.pmap(lambda i: seen[i].append(i) or -i, range(3000)))
        assert got == [-i for i in range(3000)]
        assert all(s == [i] for i, s in enumerate(seen))
    finally:
        sys.setswitchinterval(interval)
        lat._executor().shutdown()
        lat._executor.cache_clear()


@pytest.fixture
def fresh_policy():
    """`lattice._malloc_policy` runs again at the next `pmap`, and again after the test."""
    lat._malloc_policy.cache_clear()
    yield
    lat._malloc_policy.cache_clear()


def _fake_libc(monkeypatch, events, fails=None):
    """ctypes.CDLL stand-in whose mallopt logs (param, value, argtypes, restype) into `events`;
    `fails` is "dlopen" for a library that cannot be opened, "mallopt" for one without it."""

    class Mallopt:
        argtypes = restype = None

        def __call__(self, param, value):
            events.append((param, value, self.argtypes, self.restype))
            return 1

    class Lib:
        def __init__(self, name):
            if fails == "dlopen":
                raise OSError("no such library")
            if fails != "mallopt":
                self.mallopt = Mallopt()

    monkeypatch.setattr(lat.ctypes, "CDLL", Lib)


def _policy(threads: str) -> list:
    """(param, value) of each mallopt call: M_ARENA_MAX, M_TRIM_ and M_MMAP_THRESHOLD."""
    return [(-8, int(threads)), (-1, 64 << 20), (-3, 32 << 20)]


@pytest.mark.parametrize("threads", THREADS[1:])
def test_the_malloc_policy_is_set_once_before_the_pool_has_a_thread(monkeypatch, fresh_policy,
                                                                     threads):
    monkeypatch.setenv("NFLAB_THREADS", threads)
    events = []
    _fake_libc(monkeypatch, events)
    executor = functools.cache(lambda: events.append("executor") or ThreadPoolExecutor(
        2, "nflab-test", setattr, (lat._inline, "on", True)))
    monkeypatch.setattr(lat, "_executor", executor)
    try:
        for _ in range(2):
            got = _finishes(lambda: lat.pmap(lambda x: x * x, range(6)))
            assert got == [x * x for x in range(6)]
    finally:
        executor().shutdown()
    c_int = ctypes.c_int
    assert events == [(p, v, (c_int, c_int), c_int) for p, v in _policy(threads)] + ["executor"]


def _workers() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("nflab_")]


def test_pool_threads_never_outnumber_the_arenas(monkeypatch, fresh_policy):
    # the caller works beside NFLAB_THREADS - 1 workers, each thread on an arena of its own
    monkeypatch.setenv("NFLAB_THREADS", "3")
    lat._executor().shutdown()
    lat._executor.cache_clear()
    events = []
    _fake_libc(monkeypatch, events)
    executor = lat._executor
    monkeypatch.setattr(lat, "_executor", lambda: events.append(len(_workers())) or executor())

    def nested(i):
        return sum(lat.pmap(lambda j: i * j, range(4)))

    def failing(i):
        if i == 5:
            raise KeyError(i)
        time.sleep(0.005)
        return i

    try:
        assert _finishes(lambda: lat.pmap(lambda x: x * x, range(9))) == [x * x for x in range(9)]
        assert _finishes(lambda: lat.pmap(nested, range(9))) == [6 * i for i in range(9)]
        with pytest.raises(KeyError):
            lat.pmap(failing, range(12))
        assert len(_workers()) <= 2
    finally:
        executor().shutdown()
        executor.cache_clear()
    assert [(p, v) for p, v, _, _ in events[:3]] == _policy("3")
    assert events[3] == 0  # no worker had started when the arenas were capped


@pytest.mark.parametrize("fails", ["dlopen", "mallopt"])
def test_the_pool_runs_where_there_is_no_mallopt(monkeypatch, fresh_policy, fails):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    events = []
    _fake_libc(monkeypatch, events, fails)
    assert _finishes(lambda: lat.pmap(lambda x: x + 1, range(5))) == [1, 2, 3, 4, 5]
    assert events == []


def test_one_thread_sets_the_malloc_policy_too(monkeypatch, fresh_policy):
    monkeypatch.setenv("NFLAB_THREADS", "1")
    events = []
    _fake_libc(monkeypatch, events)
    assert lat.pmap(lambda x: -x, range(3)) == [0, -1, -2]
    assert [(p, v) for p, v, _, _ in events] == _policy("1")


@pytest.mark.parametrize("run", [
    lambda: schur_ladder(KernelSpec(1.2, 0.2, 0.3, variant="inhomogeneous", n=2),
                         [(2.0, 0.5), (4.0, 0.5)])], ids=["schur_ladder"])
@pytest.mark.parametrize("threads", THREADS)
def test_work_that_never_enters_the_pool_sets_the_malloc_policy_too(monkeypatch, fresh_policy,
                                                                     threads, run):
    # the Schur ladders run no pmap, which sets the policy elsewhere
    monkeypatch.setenv("NFLAB_THREADS", threads)
    for module in (lat, pr):
        monkeypatch.setattr(module, "pmap", lambda *a, **k: pytest.fail("entered the pool"))
    events = []
    _fake_libc(monkeypatch, events)
    run()
    run()
    assert [(p, v) for p, v, _, _ in events] == _policy(threads)


@pytest.mark.parametrize("form, kind", [("splus", SPATIAL), ("splus", SPACETIME),
                                        ("ralpha", SPACETIME), ("q0", SPACETIME),
                                        ("product", SPACETIME)])
@pytest.mark.parametrize("threads", THREADS)
def test_kernel_forms_set_the_malloc_policy_through_the_pool(monkeypatch, fresh_policy, threads,
                                                              form, kind):
    # the kernel sum's row blocks run on pmap, a spatial field's one block included; a product
    # form enters it only through its pads' pmap call, since crops run no pmap
    monkeypatch.setenv("NFLAB_THREADS", threads)
    g = make_grid(2, 16, 16, TWO_PI, TWO_PI)
    u, v = (random_field(g, kind, seed, max_freq=2, real=form == "splus") for seed in (1, 2))
    events = []
    _fake_libc(monkeypatch, events)
    for _ in range(2):
        apply_form(BilinearFormSpec(form, alpha=0.7), u, v)
    assert [(p, v) for p, v, _, _ in events] == _policy(threads)


def test_pmap_does_not_wait_on_a_drain_no_worker_started(monkeypatch):
    # the one worker is held busy, so the caller runs every item and the queued drain never
    # starts: pmap returns while the worker is still busy
    monkeypatch.setenv("NFLAB_THREADS", "2")
    lat._executor().shutdown()
    lat._executor.cache_clear()
    release = threading.Event()
    try:
        busy = lat._executor().submit(release.wait, 5.0)
        got = _finishes(lambda: lat.pmap(lambda x: x * x, range(5)))
        assert got == [x * x for x in range(5)]
        assert not busy.done()
        release.set()
        assert busy.result() is True
        assert _finishes(lambda: lat.pmap(lambda x: -x, range(5))) == [0, -1, -2, -3, -4]
    finally:
        release.set()
        lat._executor().shutdown()
        lat._executor.cache_clear()


def _spied_pmap(monkeypatch, module):
    """Patch module.pmap so that each item records the name of the thread it runs on.  An
    item on the caller waits (at most 10 s) until a worker has run one, so a call that
    enters the pool puts items on a worker whatever the timing."""
    names, worker_ran = [], threading.Event()
    original = lat.pmap

    def item(func, x):
        names.append(threading.current_thread().name)
        if names[-1].startswith("nflab_"):
            worker_ran.set()
        worker_ran.wait(10.0)
        return func(x)

    monkeypatch.setattr(module, "pmap", lambda func, items: original(
        functools.partial(item, func), items), raising=False)
    return names


@pytest.mark.parametrize("form", ["splus", "ralpha"])
def test_a_kernel_sum_puts_row_blocks_on_a_worker(monkeypatch, form):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    spec = BilinearFormSpec(form, alpha=0.7)
    u, v = _form_fields(2, form == "splus")
    want = apply_form(spec, u, v).coeffs
    names = _spied_pmap(monkeypatch, nf)
    got = _finishes(lambda: apply_form(spec, u, v).coeffs)
    assert np.array_equal(got, want)
    # 25 occupied columns a side: blocks of 2^13 // 25^2 = 13 of the 24 time rows
    assert len(names) == 24 // 13 + 1
    assert any(name.startswith("nflab_") for name in names)


def test_kernel_sums_inside_an_item_run_inline(monkeypatch):
    monkeypatch.setenv("NFLAB_THREADS", "2")
    u, v = _form_fields(2, False)
    spec = BilinearFormSpec("ralpha", alpha=0.7)
    runs = [lambda: apply_form(spec, u, v).coeffs, lambda: apply_form(spec, v, u).coeffs]
    want = [run() for run in runs]
    inline = []  # per nested item: does it run on the thread that called its pmap?
    original = lat.pmap

    def spy(func, items):
        caller = threading.get_ident()
        return original(lambda x: inline.append(threading.get_ident() == caller) or func(x),
                        items)

    monkeypatch.setattr(nf, "pmap", spy)
    got = _finishes(lambda: original(lambda run: run(), runs))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert len(inline) > 1 and all(inline)  # each kernel sum split into row blocks
