"""Byte-level snapshots of suite corpora, paradox-identity reports, the
dictator tables and sampled pair reports.  The digests were recorded before
the composition blocks, the suite corpora, the dictator evaluators and the
sampled pair passes were simplified; each must stay equal, so a change to a
descriptor, a report field or a winner shows."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from votelab.fileio import read_scf, write_scf
from votelab.lattice import random_set
from votelab.metrics import mab, nab, pair_reports
from votelab.rules import ScfRule, ScfTable
from votelab.sampling import CHUNK
from votelab.suites import SUITES
from votelab.welfare import check_composition, check_identities, majority_g, random_odd_g


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


DESCS = {
    # (suite, seed, n or None for the suite's default): sha256 of
    # json.dumps(list(descs(trials, n, seed, None))) at the default trials
    ("first-reduction", 0, None): "3f788351db5366871ab23466c3c04d09c0b691a6cf8705eaec6175f1b0c8e11f",
    ("first-reduction", 3, None): "ea5def5a456ee637b68ee738e6ddda91f87e74692304c396a200c6f1ec556258",
    ("border", 0, None): "99eaf3132e0a8805e790c7d4bf82d8f9e8a04e17c1fc081f1a96185bc13d2eab",
    ("border", 3, None): "404615cb0e9e2b98fa4b85300abc199d30ed1fe820694df37464a6f2666f847a",
    ("border", 0, 6): "e1c4616ee61fb226b82fa1dd465a3d6d374dce209608bb69f88952b60147607a",
    ("border", 3, 6): "b70270247d2a1d6626318769e000b7b30a96591b33162cda60c9380fe8e60700",
    ("border", 7, 6): "5014ee590f3cb4c94c24476122a938093a6a9a23cdafed73a30b34818b0a199c",
    ("shifting", 0, None): "639573b9578bc784743666385d8f97139909e3c56d50a453835d1e5a439299e2",
    ("shifting", 3, None): "265da825b3e5b30526ae40156a7d1492c41e32d99cc433786cfaed353fd7590d",
    ("shifting", 0, 6): "cfd057ad23fe6099aa3a3afd5b004b720d0a5631f80b6c5465b5340c81f76578",
    ("shifting", 3, 6): "47ad6a6c9f5678274884e8dda643f749d7c98643d6df0a13f1a86e1398d5850a",
    ("shifting", 7, 6): "0bf04ba87b1eefb8f15157b597420dd2986f67107eae6ec305da237617b668c8",
    ("cauchy", 0, None): "3f788351db5366871ab23466c3c04d09c0b691a6cf8705eaec6175f1b0c8e11f",
    ("cauchy", 3, None): "ea5def5a456ee637b68ee738e6ddda91f87e74692304c396a200c6f1ec556258",
    ("reduction-chain", 0, None): "b2dfd11517c5cc83eec905648d84b087e5856eecebb10c4609abba05e82d4fec",
    ("reduction-chain", 3, None): "962f9cb5c382e3bea090f970f0843da9ec89fe1935f658b7f69ecd2f93c92685",
    ("arrow-identity", 0, None): "0694b4822c59e8425a205dbce0d6e0801640b92a32c73f7b1156a9b8c0d60192",
    ("arrow-identity", 3, None): "c0b50ed611872aa5f5dd907fbad3f15d53a3cb7c6c328d02bd08c6a59788d265",
    ("composition", 0, None): "fa9294668196c3dbda4086f2cadb85d50b4785d3977099ae76b315f298af2b1d",
    ("composition", 3, None): "f218a72a033f425b66636df6297c4a0a7ffdc25c718802d92b1bfeb66d043aee",
    ("converse", 0, None): "eaa56ccf176bbd774818fd5cb01ddee1866983e746088d7571daa304f30b9e4f",
    ("converse", 3, None): "a9199cb742d2d78b639dd030df242797dcc455d2e169eb79e5a337b6933e71af",
}


@pytest.mark.parametrize("suite,seed,n", sorted(DESCS, key=repr))
def test_suite_descriptors_frozen(suite, seed, n):
    spec = SUITES[suite]
    descs = spec.descs(spec.trials, spec.n if n is None else n, seed, None)
    assert _digest(list(descs)) == DESCS[suite, seed, n]


def test_random_sets_frozen():
    """The points of lattice.random_set(n, seed=s), n = 1..6 and s = 0..9:
    each draws its density and then its membership from one stream."""
    sets = [random_set(n, seed=s).indices().tolist() for n in range(1, 7) for s in range(10)]
    assert _digest(sets) == "b262475abb849646abe6a8eb3d07c97638479d5dc2f1527a81069eb6cefe0a2e"


COMPOSITION_FIELDS = ("joint", "left", "right", "gap", "tol", "holds")
IDENTITY_FIELDS = ("ngcw3", "ngcw4", "four_gap", "four_tol", "four_holds", "four_exact",
                   "ngcw5", "ngcw6", "five_gap", "five_tol", "five_holds")


def _composition_fields(rep) -> dict:
    return {k: repr(getattr(rep, k)) for k in COMPOSITION_FIELDS}


def _identity_fields(rep) -> dict:
    fields = {k: repr(getattr(rep, k)) for k in IDENTITY_FIELDS}
    return {**fields, "composition": _composition_fields(rep.composition)}


REPORTS = {
    # case: (report fields, sha256 of their JSON)
    **{f"composition-{s}": (
        lambda s=s: _composition_fields(check_composition(random_odd_g(2, s))),
        "d28952ae844f09ff4df2c3b6dd00291adaf8eaadd3042b8bb00f3bbe67728996") for s in range(5)},
    **{f"identities-{s}": (
        lambda s=s: _identity_fields(check_identities(random_odd_g(2, s))),
        "c78c62b07bd8240f60bc695b3ebd89fcd201a3247ed029c2aba4410391c1227d") for s in range(5)},
    "composition-sampled": (
        lambda: _composition_fields(check_composition(
            random_odd_g(2, 1), mode="sampled", samples=4096, seed=5)),
        "737814f6bebee9bdedc75f84becae2b49d9835c5471c7fb76d969f1a773bec57"),
    "composition-majority-3": (
        lambda: _composition_fields(check_composition(majority_g(3), samples=20_000, seed=3)),
        "f929dfc9c990de973d4fb1d4b2294c5c8cd621a64f3adda73fa918fc7cf5800d"),
    "composition-odd-3": (
        lambda: _composition_fields(check_composition(random_odd_g(3, 0), samples=20_000,
                                                      seed=4)),
        "aba314b1c202e845bc721111cf46501f965519c756565b00aac1d535dbaeaf30"),
    "identities-sampled": (
        lambda: _identity_fields(check_identities(
            random_odd_g(2, 2), mode="sampled", samples=4096, seed=6)),
        "849f7e16e35bb65fa2b7aa411e6878210e49ba81c94f8af7efb48b3363db0a2f"),
    "identities-majority-3": (
        lambda: _identity_fields(check_identities(majority_g(3), samples=20_000, seed=2)),
        "b0530e30ff7ace640fe56600c78344454d0744de02c8e08d687ae5b2dcf1313f"),
}


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_identity_reports_frozen(case):
    build, digest = REPORTS[case]
    assert _digest(build()) == digest


# sha256 over every dictator and anti-dictator table's winner bytes, n = 1..4
DICTATOR_TABLES = "fdf090945e70a22befc1efc558cab3b8f3fedccc4bbfbaad19fd711b3a1a375d"


def test_dictator_tables_frozen():
    h = hashlib.sha256()
    for name in ("dictatorship", "anti_dictatorship"):
        for n in range(1, 5):
            for voter in range(n):
                h.update(ScfRule(name, voter=voter).as_table(n).outputs.tobytes())
    assert h.hexdigest() == DICTATOR_TABLES


def _table_file(tmp_path):
    path = tmp_path / "t.scf3"
    write_scf(ScfTable(5, 3, np.random.default_rng(9).integers(0, 3, 6 ** 5)), path)
    return read_scf(path)


SAMPLED_PAIRS = {
    # case: (rule or table builder, n, sha256 of the pair_reports rows at
    # CHUNK + 100 samples, seed 11)
    "borda-11": (lambda _: ScfRule("borda"), 11,
                 "fe4abcc800ddf1ec258bf8bb1bdc854172cec2e2b8c1d3110c8c2df6c3b8c275"),
    "plurality-11": (lambda _: ScfRule("plurality"), 11,
                     "458315e05c8e46eceecaa6e9dd67fb3150d824b77caad05ea10d694e5377726e"),
    "pairwise_majority_fallback-11": (
        lambda _: ScfRule("pairwise_majority_fallback"), 11,
        "97dc37ff551cda68f58baa0d6fbb8353456e6c2d29ac49baa41dd6bedad3f503"),
    "borda-20": (lambda _: ScfRule("borda"), 20,  # past the decision-table cap
                 "f284993a10b9f906ac5270dd1cf4df2f71de1873b50d0d87d9c8bcc0d49055aa"),
    "random_table-6": (lambda _: ScfRule("random_table", seed=1), 6,
                       "1b0a641070e3f9bff7c379ec0596b7bb6acb131bcfc3d4e07097442700d45506"),
    "dictatorship-5": (lambda _: ScfRule("dictatorship", voter=2), 5,
                       "ba715ec524873582223691d3e60029f1f4a079b5ee958d6f9932229ddfa8b71a"),
    "constant-4": (lambda _: ScfRule("constant", alt=1), 4,
                   "ba715ec524873582223691d3e60029f1f4a079b5ee958d6f9932229ddfa8b71a"),
    "table-file-5": (_table_file, 5,
                     "f66df1ed4dc9d6c0c06ce853bc98c223b761fab306827d0c63bf34b1fa657e29"),
}


def _rows_digest(rows) -> str:
    return _digest([dataclasses.asdict(r) for r in rows])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(SAMPLED_PAIRS))
def test_sampled_pair_reports_frozen(tmp_path, case, workers):
    build, n, digest = SAMPLED_PAIRS[case]
    rows = pair_reports(build(tmp_path), n, mode="sampled", samples=CHUNK + 100, seed=11,
                        workers=workers)
    assert _rows_digest(rows) == digest


SAMPLED_SINGLE = {
    # case: (report builder, sha256 of its row)
    "mab-borda-11-02": (
        lambda tmp, w: mab(ScfRule("borda"), 0, 2, 11, mode="sampled", samples=CHUNK + 100,
                           seed=5, workers=w),
        "590766bc8f33d00c630b71e71c182fe75fce79d4887a8843f5b35f8d6b43c0d9"),
    "nab-pmf-11-12": (
        lambda tmp, w: nab(ScfRule("pairwise_majority_fallback"), 1, 2, 11, mode="sampled",
                           samples=CHUNK + 100, seed=5, workers=w),
        "f9d83c75d6239e8bfb8b78a600650066a6029e6c2f3631a7e1d9845a92246ad6"),
    "nab-table-21": (
        lambda tmp, w: nab(_table_file(tmp), 2, 1, 5, mode="sampled", samples=5000, seed=7,
                           workers=w),
        "feb1947352e5ab6163857af0ed5e59f94196ffeefe65f84a020cc63ca5e08c71"),
    "mab-plurality-11-10": (
        lambda tmp, w: mab(ScfRule("plurality"), 1, 0, 11, mode="sampled", samples=5000,
                           seed=7, workers=w),
        "958841cbeb755cfac3ec5914467a6eabb85ffb312e5aded051de0e037ed9c068"),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(SAMPLED_SINGLE))
def test_sampled_single_pair_reports_frozen(tmp_path, case, workers):
    build, digest = SAMPLED_SINGLE[case]
    assert _rows_digest([build(tmp_path, workers)]) == digest
