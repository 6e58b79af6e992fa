import json
import random
from pathlib import Path

import pytest

from splitsim.fuzz import generate
from splitsim.model import Axiom, TablePolicy, TruthfulDelayPolicy
from splitsim.scenario import ScenarioError, load_scenario, load_scenario_file

from conftest import count_calls


def _valid(**extra):
    doc = {
        "construction": "sacks",
        "horizon": 8,
        "b": [[1, 3], [5, 0]],
        "d": [[2, 1]],
        "functionals": [
            {"side": 0, "e": 0, "axioms": [{"theta": "", "x": 0, "k": 0, "stage": 0}]}
        ],
        "seed": 7,
    }
    doc.update(extra)
    return doc


def _problems(doc):
    with pytest.raises(ScenarioError) as info:
        load_scenario(doc)
    return info.value.problems


def test_valid_document_round_trip():
    sc = load_scenario(_valid())
    assert sc.horizon == 8
    assert sc.construction == "sacks"
    assert sc.b_schedule.entries == ((1, 3), (5, 0))
    assert sc.d_schedule.entries == ((2, 1),)
    assert sc.d_limit == 0
    assert (0, 0) in sc.functionals
    assert sc.seed == 7
    assert sc.q_default == 2 * 8 + 4


def test_document_must_be_object():
    with pytest.raises(ScenarioError):
        load_scenario([1, 2])


def test_all_problems_reported_at_once():
    problems = _problems(
        {
            "construction": "nonsense",
            "horizon": 1,
            "b": [[2, 0]],
            "zzz": True,
        }
    )
    assert any(p.startswith("zzz:") for p in problems)
    assert any(p.startswith("horizon:") for p in problems)
    assert any(p.startswith("construction:") for p in problems)
    assert any(p.startswith("b[0]:") for p in problems)
    assert len(problems) >= 4


@pytest.mark.parametrize(
    "b,needle",
    [
        ([[2, 0]], "odd stages"),
        ([[1, 0], [1, 2]], "at most one element per stage"),
        ([[1, 0], [3, 0]], "twice"),
        ([[1, 99]], "element 99 outside"),
        ([[33, 0]], "stage 33 outside"),
        ([[1]], "pair of integers"),
        ([["1", 0]], "pair of integers"),
        ("nope", "array"),
    ],
)
def test_b_schedule_conventions(b, needle):
    problems = _problems(_valid(b=b))
    assert any(needle in p for p in problems)


def test_d_policy_document():
    sc = load_scenario(_valid(d={"policy": "anti-delta", "params": {"limit": 3}}))
    assert sc.d_limit == 3
    assert sc.d_schedule.entries == ()
    sc = load_scenario(_valid(d={"policy": "anti-delta"}))
    assert sc.d_limit == -1

    assert any("d.policy" in p for p in _problems(_valid(d={"policy": "other"})))
    assert any(
        "d.params" in p
        for p in _problems(_valid(d={"policy": "anti-delta", "params": {"x": 1}}))
    )
    assert any(
        "d.params.limit" in p
        for p in _problems(_valid(d={"policy": "anti-delta", "params": {"limit": -2}}))
    )
    assert any(
        "d.extra" in p
        for p in _problems(_valid(d={"policy": "anti-delta", "extra": 0}))
    )


def test_functional_validation():
    assert any(
        "functionals[0].side" in p
        for p in _problems(_valid(functionals=[{"side": 2, "e": 0, "axioms": []}]))
    )
    assert any(
        "functionals[0].e" in p
        for p in _problems(_valid(functionals=[{"side": 0, "e": -1, "axioms": []}]))
    )
    assert any(
        "duplicate functional" in p
        for p in _problems(
            _valid(
                functionals=[
                    {"side": 0, "e": 0, "axioms": []},
                    {"side": 0, "e": 0, "axioms": []},
                ]
            )
        )
    )
    assert any(
        "functionals[0].what" in p
        for p in _problems(_valid(functionals=[{"side": 0, "e": 0, "what": 1}]))
    )
    assert any(
        "axioms[0].stage" in p
        for p in _problems(
            _valid(
                functionals=[
                    {"side": 0, "e": 0, "axioms": [{"theta": "", "x": 0, "k": 0, "stage": 99}]}
                ]
            )
        )
    )
    # Unary tables must not carry sigma; binary ones must.
    assert any(
        "second oracle string" in p
        for p in _problems(
            _valid(
                functionals=[
                    {"side": 0, "e": 0, "axioms": [{"theta": "", "sigma": "", "x": 0, "k": 0}]}
                ]
            )
        )
    )
    robinson = _valid(
        construction="robinson",
        functionals=[{"side": 0, "e": 0, "axioms": [{"theta": "", "x": 0, "k": 0}]}],
    )
    assert any("second oracle string" in p for p in _problems(robinson))


def test_conflicting_axioms_rejected():
    problems = _problems(
        _valid(
            functionals=[
                {
                    "side": 0,
                    "e": 0,
                    "axioms": [
                        {"theta": "", "x": 0, "k": 0, "stage": 0},
                        {"theta": "1", "x": 0, "k": 1, "stage": 0},
                    ],
                }
            ]
        )
    )
    assert any("conflicting axiom" in p for p in problems)


def test_p_policy_validation():
    sc = load_scenario(_valid(construction="robinson", functionals=[]))
    assert isinstance(sc.p_policy, TruthfulDelayPolicy)
    assert sc.p_policy.delay == 1
    sc = load_scenario(
        _valid(
            construction="robinson",
            functionals=[],
            p_policy={"type": "table", "values": {"0": [0, 1]}},
        )
    )
    assert isinstance(sc.p_policy, TablePolicy)
    assert [sc.p_policy.spans(j, None, 1) for j in (0, 1)] == [[(1, 1)], []]

    assert any("p_policy.type" in p for p in _problems(_valid(p_policy={"type": "x"})))
    assert any("p_policy.d" in p for p in _problems(_valid(p_policy={"type": "truthful_delay", "d": 0})))
    assert any(
        "p must answer 0 at stage 0" in p
        for p in _problems(_valid(p_policy={"type": "table", "values": {"0": [1]}}))
    )
    assert any(
        "array of bits" in p
        for p in _problems(_valid(p_policy={"type": "table", "values": {"0": [0, 7]}}))
    )
    assert any(
        "keys must be indices" in p
        for p in _problems(_valid(p_policy={"type": "table", "values": {"x": [0]}}))
    )


def test_q_and_seed_validation():
    assert any("q_default" in p for p in _problems(_valid(q_default=0)))
    assert any("q_overrides" in p for p in _problems(_valid(q_overrides=[1])))
    assert any("q_overrides.x" in p for p in _problems(_valid(q_overrides={"x": 2})))
    assert any("q_overrides.3" in p for p in _problems(_valid(q_overrides={"3": 0})))
    assert any("seed" in p for p in _problems(_valid(seed=-1)))
    sc = load_scenario(_valid(q_overrides={"3": 2}, q_default=5))
    assert sc.q_overrides == {3: 2}
    assert sc.q_default == 5


def _axiom(**fields):
    return [{"side": 0, "e": 0, "axioms": [dict({"theta": "", "x": 0, "k": 0}, **fields)]}]


@pytest.mark.parametrize(
    "extra,path",
    [
        # Integer fields take JSON integers only: no booleans, no floats.
        ({"horizon": True}, "horizon:"),
        ({"horizon": 8.0}, "horizon:"),
        ({"seed": 1.0}, "seed:"),
        ({"functionals": _axiom(k=True)}, "functionals[0].axioms[0].k:"),
        ({"functionals": _axiom(k=1.0)}, "functionals[0].axioms[0].k:"),
        ({"functionals": _axiom(x=False)}, "functionals[0].axioms[0].x:"),
        ({"functionals": _axiom(x=0.0)}, "functionals[0].axioms[0].x:"),
        ({"functionals": [{"side": 1.0, "e": 0, "axioms": []}]}, "functionals[0].side:"),
        ({"q_overrides": {"0": True}}, "q_overrides.0:"),
        ({"q_overrides": {"0": 2.0}}, "q_overrides.0:"),
        ({"p_policy": {"type": "table", "values": {"0": [0, True]}}}, "p_policy.values.0:"),
        # Index keys are canonical ASCII decimals.
        ({"q_overrides": {"²": 2}}, "q_overrides.²:"),
        ({"q_overrides": {"٣": 2}}, "q_overrides.٣:"),
        ({"q_overrides": {"03": 2, "3": 5}}, "q_overrides.03:"),
        ({"q_overrides": {"-1": 2}}, "q_overrides.-1:"),
        ({"q_overrides": {"3\n": 2}}, "q_overrides.3\n:"),
        ({"p_policy": {"type": "table", "values": {"²": [0]}}}, "p_policy.values.²:"),
        ({"p_policy": {"type": "table", "values": {"01": [0]}}}, "p_policy.values.01:"),
    ],
)
def test_problem_paths(extra, path):
    problems = _problems(_valid(**extra))
    assert [p for p in problems if p.startswith(path)], problems


def test_canonical_index_keys_load():
    sc = load_scenario(_valid(q_overrides={"0": 2, "10": 3}))
    assert sc.q_overrides == {0: 2, 10: 3}
    sc = load_scenario(_valid(p_policy={"type": "table", "values": {"0": [0], "12": [0, 1]}}))
    assert isinstance(sc.p_policy, TablePolicy)
    assert [sc.p_policy.spans(j, None, 1) for j in (0, 1, 12)] == [[], [], [(1, 1)]]


def test_load_scenario_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_valid()))
    assert load_scenario_file(str(path)).horizon == 8
    missing = tmp_path / "nope.json"
    with pytest.raises(ScenarioError):
        load_scenario_file(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario_file(str(bad))
    undecodable = tmp_path / "latin.json"
    undecodable.write_bytes(b"\xff" + json.dumps(_valid()).encode())
    with pytest.raises(ScenarioError) as info:
        load_scenario_file(str(undecodable))
    assert info.value.problems[0].startswith(str(undecodable))


# The loader's problem lists, pinned.  Document n is generate(2026, n // 2,
# c, 64) with c alternating sacks, robinson, and it gets corruption
# n % 12 on a functional and an axiom that random.Random(n) picks; the
# cycle puts each binary-only corruption on a robinson document and the
# unary-only one on a sacks document.  Every list was recorded before
# the loader formatted its problem paths lazily, so each message and its
# order are pinned.
LOADER_GOLDEN = Path(__file__).parent / "golden" / "loader-problems.json"
CORRUPTIONS = (
    "unknown axiom keys",
    "bool x",
    "float k",
    "stage out of range",
    "non-bit theta",
    "sigma/theta length mismatch",
    "sigma on a unary table",
    "no sigma on a binary table",
    "duplicate functional",
    "conflicting pair",
    "axioms not a list",
    "axiom not an object",
)


def _corrupted(n):
    """(document label, corruption, corrupted document) for document n."""
    construction = ("sacks", "robinson")[n % 2]
    doc = generate(2026, n // 2, construction, 64)
    kind = CORRUPTIONS[n % len(CORRUPTIONS)]
    rng = random.Random(n)
    table = rng.choice(doc["functionals"])
    axioms = table["axioms"]
    at = rng.randrange(len(axioms))
    ax = axioms[at]
    if kind == "unknown axiom keys":
        ax.update(zeta=1, alpha=2)
    elif kind == "bool x":
        ax["x"] = True
    elif kind == "float k":
        ax["k"] = float(ax["k"])
    elif kind == "stage out of range":
        ax["stage"] = doc["horizon"] + 1
    elif kind == "non-bit theta":
        ax["theta"] = "2" + ax["theta"][1:]
    elif kind == "sigma/theta length mismatch":
        ax["sigma"] += "0"
    elif kind == "sigma on a unary table":
        ax["sigma"] = ax["theta"]
    elif kind == "no sigma on a binary table":
        del ax["sigma"]
    elif kind == "duplicate functional":
        doc["functionals"].append(dict(table))
    elif kind == "conflicting pair":
        axioms.append(dict(ax, k=1 - ax["k"]))
    elif kind == "axioms not a list":
        table["axioms"] = {"0": ax}
    else:
        axioms[at] = [ax["theta"], ax["x"], ax["k"]]
    return "%s[%d]" % (construction, n // 2), kind, doc


def _loader_problems():
    records = []
    for n in range(300):
        label, kind, doc = _corrupted(n)
        records.append({"document": label, "corruption": kind, "problems": _problems(doc)})
    return records


def test_loader_problem_lists_are_pinned():
    golden = json.loads(LOADER_GOLDEN.read_text(encoding="utf-8"))
    assert _loader_problems() == golden


def test_one_axiom_reports_its_problems_in_order():
    bad = {"theta": "", "x": True, "k": 1.0, "zeta": 0, "alpha": 0}
    assert _problems(_valid(functionals=_axiom(**bad))) == [
        "functionals[0].axioms[0].alpha: unknown key",
        "functionals[0].axioms[0].zeta: unknown key",
        "functionals[0].axioms[0].x: must be an integer",
        "functionals[0].axioms[0].k: must be an integer",
    ]
    assert _problems(_valid(functionals=_axiom(stage=-1, x=-1, theta="2"))) == [
        "functionals[0].axioms[0].stage: must lie in 0..8",
    ]
    assert _problems(_valid(functionals=_axiom(x=-1, theta="2"))) == [
        "functionals[0].axioms[0]: oracle strings must consist of 0/1 characters: '2'",
    ]
    assert _problems(_valid(functionals=_axiom(x=-1, k=2, theta=7))) == [
        "functionals[0].axioms[0]: oracle strings must consist of 0/1 characters: 7",
    ]
    assert _problems(_valid(functionals=_axiom(x=-1, k=2))) == [
        "functionals[0].axioms[0]: axiom input must be a natural",
    ]


def test_corpus_load_builds_and_validates_each_axiom_once(corpus, monkeypatch):
    docs = [row["doc"] for row in corpus["rows"]]
    axioms = sum(len(f["axioms"]) for doc in docs for f in doc["functionals"])
    new = count_calls(monkeypatch, Axiom, "__new__")
    validate = count_calls(monkeypatch, Axiom, "validate")
    for doc in docs:
        load_scenario(doc)
    assert axioms == 27077
    assert (len(new), len(validate)) == (axioms, axioms)
