"""Pinned draws: for seeds 0..2 of every entry of SUITES["all"], the
parameters sample_case draws, and the interpolation factors its case
declares (shape, places, a, b, vs), equal a stored fixture to 1e-12
relative, so a refactor of a sampler, of a feasibility check or of
where an integrand's factor sits cannot silently move a draw.

Regenerate the fixture only for a change that is meant to move draws:

    PYTHONPATH=src python tests/test_pinned_draws.py

It prints the key of each record it changes with the fields that
change, and the count it leaves alone, then rewrites the fixture.
"""

import json
import pathlib

import pytest

from ellsel.harness import SUITES, sample_case

FIXTURE = pathlib.Path(__file__).with_name("pinned_draws.json")
SEEDS = range(3)
REL = 1e-12


def _c2(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _entries() -> list[tuple[str, dict]]:
    """SUITES["all"] without repeats, in suite order."""
    seen, out = set(), []
    for family, options in SUITES["all"]:
        key = (family, tuple(sorted(options.items())))
        if key not in seen:
            seen.add(key)
            out.append((family, options))
    return out


def draw_record(family: str, options: dict, seed: int) -> dict:
    """The case's draw as the fixture records it: a density family's by
    its paramset, any other's by its named values."""
    case = sample_case(family, seed, **options)
    ps, draw = case.paramset, case.draw
    return {
        "family": family,
        "options": options,
        "seed": seed,
        "id": case.id,
        "infeasible": case.infeasible is not None,
        "params": {} if ps is not None or draw is None else {key: _c2(val) for key, val in draw.values.items()},
        "paramset": None if ps is None else ps.to_json_dict(),
        "residues": [[term.level, term.index] for term in case.contour.residues],
        "factors": [
            {
                "shape": str(factor.shape), "places": factor.places, "a": _c2(factor.a), "b": _c2(factor.b),
                "vs": None if factor.vs is None else [_c2(v) for v in factor.vs],
            }
            for factor in ([] if draw is None else draw.factors)
        ],
    }


def _close(got, want, where: str):
    """Equal structures; a [re, im] pair or a float to REL relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and len(want) == 2 and all(isinstance(v, float) for v in want):
        g, w = complex(*got), complex(*want)
        assert abs(g - w) <= REL * abs(w), f"{where}: {g} != {w}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= REL * abs(want), f"{where}: {got} != {want}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _key(family: str, options: dict, seed: int) -> str:
    return f"{family}{json.dumps(options, separators=(',', ':'))}-s{seed}"


CASES = [(f, o, s) for f, o in _entries() for s in SEEDS]


@pytest.mark.parametrize("family,options,seed", CASES, ids=[_key(*c) for c in CASES])
def test_draw_matches_fixture(family, options, seed):
    pinned = {_key(r["family"], r["options"], r["seed"]): r for r in json.loads(FIXTURE.read_text())}
    want = pinned[_key(family, json.loads(json.dumps(options)), seed)]
    got = json.loads(json.dumps(draw_record(family, options, seed)))
    _close(got, want, want["id"])


if __name__ == "__main__":
    old = {}
    if FIXTURE.exists():
        old = {_key(r["family"], r["options"], r["seed"]): r for r in json.loads(FIXTURE.read_text())}
    records = [json.loads(json.dumps(draw_record(*case))) for case in CASES]
    changed = [(key, record) for key, record in zip((_key(*case) for case in CASES), records) if old.get(key) != record]
    for key, record in changed:
        fields = [name for name in record if old.get(key, {}).get(name) != record[name]]
        print(f"changed {key}: {', '.join(fields)}")
    print(f"{len(records) - len(changed)} of {len(records)} records unchanged")
    FIXTURE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} draws to {FIXTURE}")
