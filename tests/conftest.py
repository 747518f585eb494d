"""Shared pytest configuration: the ``slow`` marker and sweep isolation."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running end-to-end experiments")


@pytest.fixture(autouse=True, scope="session")
def _hermetic_sweep_cache(tmp_path_factory):
    """Point the sweep engine's disk store at a session tmp dir.

    Tests share one warm store for the whole session (the designed
    cross-runner behavior) but never read or grow the user's real
    ``~/.cache/repro``.
    """
    from repro.eval.engine import temporary_cache_dir

    with temporary_cache_dir(tmp_path_factory.mktemp("sweep-cache")):
        yield


@pytest.fixture
def edit_corpus(tmp_path):
    """``edit_corpus(tarball, edit)``: unpack an exported corpus tarball,
    call ``edit(root)`` on the unpacked files, and pack what is left
    back into the same (plain) tarball — how a test damages a corpus
    the way a bad disk or a careless hand would."""
    import tarfile

    def edit_corpus(tarball, edit):
        root = tmp_path / f"{tarball.name}.unpacked"
        with tarfile.open(tarball) as tar:
            for member in tar.getmembers():
                path = root / member.name
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())
        edit(root)
        with tarfile.open(tarball, "w") as tar:
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    tar.add(path, arcname=path.relative_to(root).as_posix())

    return edit_corpus


@pytest.fixture
def sweep_engine(tmp_path):
    """A fresh, isolated SweepEngine installed as the process default.

    Swaps in an engine whose disk store lives under the test's tmp dir
    and clears every sweep-related cache on entry and exit
    (``repro.eval.experiments.clear_caches``), so sweep state can never
    leak between tests or into the user's real on-disk cache.
    """
    from repro.eval import engine as engine_mod
    from repro.eval.experiments import clear_caches

    fresh = engine_mod.SweepEngine(workers=0, cache_dir=tmp_path / "sweep-cache")
    previous = engine_mod.set_engine(fresh)
    clear_caches()
    try:
        yield fresh
    finally:
        engine_mod.set_engine(previous)
        clear_caches()
