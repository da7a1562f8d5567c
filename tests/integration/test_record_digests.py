"""Figure-1 records pinned bit for bit.

Each registered row's record is digested by sha256 over its name,
``valid``, and its parameters, metrics and bounds as ordered items (floats
by ``float.hex``), so a change to a row's workload, a driver, a baseline or
the order a record's entries are inserted in (the text table and the
``parameters:`` line show that order; the key-sorted JSON does not) moves
a digest.  The cases are the ten rows at two seeds, ``mis`` with
``simple=True``, one named scenario of each workload kind, and one grid of
each row that takes ``include_lp`` / ``include_exact``, whose cells turn
the reference off.

The LP metrics (``lp_*`` and ``ratio_vs_lp``) are left out: scipy's HiGHS
computes them, and its version is not pinned.
"""

from __future__ import annotations

import pytest

from repro.experiments import GRIDS, run_figure1
from repro.registry import iter_algorithms

from .test_driver_digests import _digest

SEEDS = (2018, 7)


def _record_digest(records) -> str:
    return _digest(
        [
            (
                record.experiment,
                record.valid,
                list(record.parameters.items()),
                [
                    (key, value)
                    for key, value in record.metrics.items()
                    if not key.startswith("lp_") and key != "ratio_vs_lp"
                ],
                list(record.bounds.items()),
            )
            for record in records
        ]
    )


def _first_grid(algorithm: str):
    """The first grid that sweeps ``algorithm``'s row; its cells run no reference."""
    return next(grid for grids in GRIDS.values() for grid in grids if grid.algorithm == algorithm)


ROW_DIGESTS = {
    ("fig1-vertex-cover", 2018): "fe477ca02f7c545a5e3b24ffb31de82db1682ffe19400f80507c9fcbb47429a6",
    ("fig1-vertex-cover", 7): "72569c0c2bb2742714263dd8bc8e6ad071497fedc00d474d05e9e3c4b9d4e54d",
    ("fig1-set-cover-f", 2018): "75e65b39ada28a28c22ed142b83e947e05965296697d5891748524ecbc234d62",
    ("fig1-set-cover-f", 7): "a679975d345af54e5f16d34c1ef0f93ba0275b40e6d12e9640af2b9dc8ade099",
    ("fig1-set-cover-greedy", 2018): "a26c8228bc03c1a345aae89c56ee180113170ff6a31154c7c23e0d5f89f06f12",
    ("fig1-set-cover-greedy", 7): "b2f6a283b58b036cd50b54d1452ccb5608ef76a7d2db37346ed6002f16e480a6",
    ("fig1-mis", 2018): "020822784a9c6d4ce49d0b0b53533eae5509f713677ac208929f617c2a09186f",
    ("fig1-mis", 7): "036e26fc02aab8c273b1b290b6e67de52de1837f6e37a1cf2fcb7bf41b53ac3b",
    ("fig1-maximal-clique", 2018): "087fa5f377bdf843a7dd447c34101ae3fc554022077fe9f20a46d60b46ffe3c1",
    ("fig1-maximal-clique", 7): "28b6f1a6c85287b947fc5ac1482248e45502f0818279e2c60afef6a7da424554",
    ("fig1-matching", 2018): "8204139a281fce68f8876d28de27b8c9ff579040aca7a2db645d689628a52aa2",
    ("fig1-matching", 7): "61616f48dd13b9e8f59330fe4a4ef476ab35e9361fc96d4ed666c08b67391e22",
    ("fig1-matching-mu0", 2018): "84178af7ca560058aaa6498c6ff86e15452abc4c3a83cfa8f906f3b96b6bdb13",
    ("fig1-matching-mu0", 7): "1b5c05aff46f380a6ed77afe9af75559a03218e9fbcc60a7adea3d780f15b987",
    ("fig1-b-matching", 2018): "b78dd335b461ac7b5a0b729eba4b05b0f62c163a69e4fbeb8ef9c07565d90c5e",
    ("fig1-b-matching", 7): "131c0b6154e2d9bf73cc6f562b343c5be7769f7915330716b43e66db8f0dea44",
    ("fig1-vertex-colouring", 2018): "4003ec10ce40d877a074d555a7e27f935f21e98cb619efb60722465b09485050",
    ("fig1-vertex-colouring", 7): "2e2cdc73223888ce6cb9512ff5dc5271c680490405ec66d9286f557630bf8f3f",
    ("fig1-edge-colouring", 2018): "c6ce81af9a3f470e1a48b3e8dff8fa3b475572baa97844bc5432e85dee7ddceb",
    ("fig1-edge-colouring", 7): "151f22735dc653c9cefd5139d46f04c90c071a63839b254ea5356b31a81c38e3",
}

CASE_DIGESTS = {
    "mis-simple": "97380de37c6be8776e31e03cf21b7c82c356df446b494d19abf71da8ba938bdf",
    "scenario-powerlaw-dense": "be005c49bdcedbf44073f96b28ed62ce3a742a55d40ec7c8c5b10a3bace74bb2",
    "scenario-coverage-planning": "814be722a1c9dc2f2d8981a6da431bd9bd348306156008482b82a8057fe453ed",
    "grid-vertex-cover": "304302b527f877fa69e5d60d158fdf8b323989716934e5a779e046e30d833adb",
    "grid-set-cover": "53254f60f7cf2fc55745556e1fc62126494b416e7ab15c32e8eadd439b3dc595",
    "grid-set-cover-greedy": "677769f0ee0d68523d23db1ab19bb78f3db2c98eba04812b7cefeec535c0245a",
    "grid-matching": "b93c386c3488f04211876e7656d2d212c49d02e5490370eb455fce2289e8b6ba",
}


def test_every_row_is_pinned():
    rows = {spec.experiment for spec in iter_algorithms()}
    assert {row for row, _ in ROW_DIGESTS} == rows
    references = {
        spec.name
        for spec in iter_algorithms()
        if {"include_lp", "include_exact"} & set(spec.params)
    }
    assert {case[len("grid-"):] for case in CASE_DIGESTS if case.startswith("grid-")} == references


@pytest.mark.parametrize("row, seed", list(ROW_DIGESTS), ids=[f"{r}-{s}" for r, s in ROW_DIGESTS])
def test_row_records_are_pinned(row, seed):
    assert _record_digest(run_figure1(seed, experiments=[row])) == ROW_DIGESTS[row, seed]


def _case(name: str):
    if name == "mis-simple":
        return run_figure1(SEEDS[0], cells=[("fig1-mis", {"simple": True})])
    if name.startswith("scenario-"):
        return run_figure1(SEEDS[0], scenario=name[len("scenario-"):])
    return run_figure1(SEEDS[0], cells=_first_grid(name[len("grid-"):]).cells())


@pytest.mark.parametrize("name", list(CASE_DIGESTS))
def test_case_records_are_pinned(name):
    assert _record_digest(_case(name)) == CASE_DIGESTS[name]
