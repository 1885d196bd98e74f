"""The fitted tables: grouped exactness, the lowering oracle, pinned
hashes, pickling, the v1 JSON round trip and the checked load boundary.

An :class:`~repro.model.model_set.HourModel` *is* the generator's
tables.  The fitter writes them with grouped array operations; they must
equal, array by array and bit for bit, the object-walk lowering kept as
``oracle.compile`` applied to the model's cluster view
(``oracle.objects.cluster_view``).  Together with ``test_compiled_fit``'s
``to_dict`` equality against the per-segment fit oracle, that pins the
tables to the original fit-then-lower pipeline.
"""

import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import fit_method
from repro.generator import TrafficGenerator
from repro.groundtruth import simulate_ground_truth
from repro.model import ModelSet, scale_to_sa
from repro.model.grouped import (
    group_means,
    grouped_cumsum,
    grouped_knots,
    linear_quantiles,
)
from repro.model.model_set import GENERATOR_COLUMNS, VIEW_COLUMNS
from repro.trace import DeviceType, EventType

from conftest import TRACE_START_HOUR, v1_edge
from oracle import compile as oracle_compile
from oracle import groundtruth as oracle_groundtruth

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Columns the oracle lowering produces under the same names.
LOWERED = (
    "state_deg", "sel_key", "edge_event", "edge_target", "edge_kind",
    "edge_rate", "edge_knot_ptr", "knot_p", "knot_v", "p_active",
    "fe_key", "fe_event", "fe_state", "foff_ptr", "foff_p", "foff_v",
    "assign_keys", "assign_vals", "weights_cum",
)


def bits_equal(a, b) -> bool:
    """Same dtype, shape and bytes (so ``-0.0 != 0.0`` and NaNs compare)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_tables_equal_lowering(model_set: ModelSet) -> None:
    """Every hour's tables equal the oracle lowering of its cluster view."""
    lowered = oracle_compile.compile_model_set(model_set)
    for dt, hours in model_set.models.items():
        for hour, hm in hours.items():
            ref = lowered[int(dt)][hour]
            for name in LOWERED:
                assert bits_equal(getattr(hm, name), getattr(ref, name)), (
                    dt.name, hour, name,
                )
            assert hm.S == ref.S and hm.has_exp == ref.has_exp
            assert hm.overlay_clusters == ref.overlay_clusters
            overlay = [
                sorted(
                    (int(e), float(r))
                    for e, r in zip(hm.overlay_events, hm.overlay_rates[c])
                    if r > 0
                )
                for c in range(hm.num_clusters)
            ]
            assert overlay == [cc.overlay for cc in ref.clusters]


def assert_same_tables(a: ModelSet, b: ModelSet) -> None:
    assert a.models.keys() == b.models.keys()
    for dt, hours in a.models.items():
        assert hours.keys() == b.models[dt].keys()
        for hour, hm in hours.items():
            for name in GENERATOR_COLUMNS + VIEW_COLUMNS:
                assert bits_equal(
                    getattr(hm, name), getattr(b.models[dt][hour], name)
                ), (dt.name, hour, name)


# ---------------------------------------------------------------------------
# Grouped reductions vs per-group numpy calls
# ---------------------------------------------------------------------------

values_st = st.one_of(
    st.floats(min_value=0.0, max_value=3600.0, allow_nan=False),
    st.sampled_from([0.0, 1e-3, 2.5, 2.5, 60.0]),  # ties
    st.floats(min_value=1e300, max_value=1.7e308),  # huge
)


@st.composite
def grouped_samples(draw, max_points):
    """Groups of sizes around ``max_points``, incl. ties and constants."""
    sizes = draw(
        st.lists(
            st.sampled_from([1, 2, max_points, max_points + 1, 3 * max_points + 2]),
            min_size=1,
            max_size=6,
        )
    )
    groups = []
    for size in sizes:
        if draw(st.booleans()):
            groups.append([draw(values_st)] * size)  # all equal
        else:
            groups.append(
                draw(st.lists(values_st, min_size=size, max_size=size))
            )
    return groups


def flat_groups(groups, sort=True):
    lengths = np.asarray([len(g) for g in groups], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    values = np.concatenate(
        [np.sort(g) if sort else np.asarray(g, dtype=np.float64) for g in groups]
    )
    return values, starts, lengths


class TestGroupedReductions:
    @SETTINGS
    @given(data=st.data(), max_points=st.integers(min_value=2, max_value=9))
    def test_quantiles_equal_np_quantile(self, data, max_points):
        groups = data.draw(grouped_samples(max_points))
        values, starts, lengths = flat_groups(groups)
        q = np.linspace(0.0, 1.0, max_points)
        with np.errstate(over="ignore", invalid="ignore"):
            got = linear_quantiles(values, starts, lengths, q)
            for row, group in zip(got, groups):
                ref = np.sort(np.quantile(np.asarray(group), q, method="linear"))
                assert bits_equal(row, ref)

    @SETTINGS
    @given(data=st.data(), max_points=st.integers(min_value=2, max_value=9))
    def test_knots_equal_empirical_fit(self, data, max_points):
        """Sorted samples up to ``max_points``, quantiles above, as
        ``EmpiricalCDF.fit`` stores them."""
        groups = data.draw(grouped_samples(max_points))
        values, starts, lengths = flat_groups(groups)
        with np.errstate(over="ignore", invalid="ignore"):
            ptr, knots = grouped_knots(values, starts, lengths, max_points)
            for g, group in enumerate(groups):
                arr = np.asarray(group, dtype=np.float64)
                if arr.size > max_points:
                    arr = np.quantile(arr, np.linspace(0.0, 1.0, max_points))
                assert bits_equal(knots[ptr[g]:ptr[g + 1]], np.sort(arr))

    @SETTINGS
    @given(data=st.data())
    def test_means_and_cumsums_equal_numpy(self, data):
        groups = data.draw(grouped_samples(5))
        values, starts, lengths = flat_groups(groups, sort=False)
        with np.errstate(over="ignore"):
            means = group_means(values, starts, lengths)
            cums = grouped_cumsum(values, starts)
            for g, group in enumerate(groups):
                arr = np.asarray(group, dtype=np.float64)
                assert bits_equal(means[g], np.float64(arr.mean()))
                assert bits_equal(
                    cums[starts[g]:starts[g] + lengths[g]], np.cumsum(arr)
                )


# ---------------------------------------------------------------------------
# Fitted tables vs the lowering oracle
# ---------------------------------------------------------------------------

class TestTablesEqualLowering:
    def test_fixture_fits(self, ours_model_set, base_model_set):
        assert_tables_equal_lowering(ours_model_set)
        assert_tables_equal_lowering(base_model_set)

    @pytest.mark.parametrize("method", ["v1", "v2"])
    def test_fixture_baselines(self, ground_truth_trace, method):
        model_set = fit_method(
            method, ground_truth_trace, theta_n=25,
            trace_start_hour=TRACE_START_HOUR,
        )
        assert_tables_equal_lowering(model_set)

    def test_compressed_cdfs(self, ground_truth_trace):
        """Edges above ``max_cdf_points`` store grouped quantiles."""
        model_set = fit_method(
            "ours", ground_truth_trace, theta_n=25,
            trace_start_hour=TRACE_START_HOUR, max_cdf_points=8,
        )
        assert_tables_equal_lowering(model_set)

    @pytest.mark.parametrize(
        "population,methods",
        [
            (300, ("base", "v1", "v2", "ours")),          # paper-eval-1k
            ({DeviceType.PHONE: 300}, ("base", "ours")),  # fit-eval-phone-5k
        ],
        ids=["paper-eval", "fit-eval-phone"],
    )
    def test_benchmark_configurations(self, population, methods):
        """perfbench's fits (busy hour 19, ``theta_n`` = UEs / 10) at 300 UEs."""
        train = simulate_ground_truth(
            population, 2 * 3600.0, start_hour=19, seed=903
        )
        for method in methods:
            model_set = fit_method(method, train, theta_n=30, trace_start_hour=19)
            assert_tables_equal_lowering(model_set)

    def test_loaded_tables_equal_fitted(self, ours_model_set, base_model_set):
        """The JSON round trip rebuilds equal tables."""
        for model_set in (ours_model_set, base_model_set):
            back = ModelSet.from_dict(model_set.to_dict())
            assert_same_tables(model_set, back)
            assert back.content_hash() == model_set.content_hash()


# ---------------------------------------------------------------------------
# Pinned hashes: fitted models and their generated traces are unchanged
# ---------------------------------------------------------------------------

#: (method, training seed, max_cdf_points) -> (model hash, trace hash).
#: The trace hashes are those of the SplitMix64 counter streams.
PINNED = {
    ('base', 5, 512): (
        "0cad447dbf816b25696ec8eb2c3949ba5ea107a745b8dc419f8bd707ff0553e2",
        "b7e660075bed4e198ad9d5210d011d23d144862a9bec56e42455648140fa5d39",
    ),
    ('base', 6, 16): (
        "6c940bf518bb2816a14e7e04318065ffbad514adc697315e25fa7c6bbbd4cdcb",
        "547866f323e717d5fa6bae2bfbd6d33f787f4c32c5b5ff9b94f051666e0380d2",
    ),
    ('v1', 5, 512): (
        "09ae144937314bbca3d7dd6166906cf0014bedf4b61645eb6411bcdda9e364bf",
        "306b2ae54390d8d271e588744bdee66cb757114d20907c2934ce2909627f3836",
    ),
    ('v1', 6, 16): (
        "5a5e68ec483467f69985faf6bb9a781576388ab6ad85378a98796805baef4b63",
        "33d5e5a437bd10f137668b7ffafdd2c1ff3a4c3ec816d6bc6b7a1e5e59a90ac2",
    ),
    ('v2', 5, 512): (
        "d290ff5bd07b298e3a7614ff7d67742cec6e8a57a88afa8def279a81fa120c1c",
        "d0f5802a14916d6af91691d908cd5f4ac4d21b95e25759bcc4e0a3e7587d135f",
    ),
    ('v2', 6, 16): (
        "37c1733a3c4d96bda8db5eb9cd96497f1dd1a3af4f5285db709160e0c8baf45b",
        "1a2f99a8feb02052e971e4bf35548d5d528a393ef96b6db68ee0fa5734c4ee6d",
    ),
    ('ours', 5, 512): (
        "3d737dde34b24cf2d0e8e94604a3c2687c247f4a765c9453737df18cf9f37624",
        "ee6dd3259933d073552441c11de8477e964ce6205c07641825ef6294e5625223",
    ),
    ('ours', 6, 16): (
        "672fa41c7ed2495e09afd079fc97093d3fded5c51e03c38b47ed271ee28faff4",
        "eddfcf9cfdef71ff387a6cc39d48658032271b29b58c67ffd509869065c28e82",
    ),
}


@pytest.fixture(scope="module")
def pin_traces():
    """The training traces, from the oracle simulator: the pins guard
    fitting and generation, so their input stays put when the
    ground-truth engine's random streams change."""
    return {
        seed: oracle_groundtruth.simulate_ground_truth(
            {
                DeviceType.PHONE: 30,
                DeviceType.CONNECTED_CAR: 12,
                DeviceType.TABLET: 10,
            },
            duration=2 * 3600.0,
            seed=seed,
            start_hour=17,
        )
        for seed in (5, 6)
    }


class TestPinnedHashes:
    @pytest.mark.parametrize("key", sorted(PINNED), ids=lambda k: "-".join(map(str, k)))
    def test_model_and_trace_hashes(self, pin_traces, key):
        method, seed, max_points = key
        model_set = fit_method(
            method, pin_traces[seed], theta_n=8, trace_start_hour=17,
            max_cdf_points=max_points,
        )
        trace = TrafficGenerator(model_set).generate(
            40, start_hour=18, num_hours=1, seed=3
        )
        assert (model_set.content_hash(), trace.content_hash()) == PINNED[key]


# ---------------------------------------------------------------------------
# Pickling: workers receive ready tables
# ---------------------------------------------------------------------------

class TestPickle:
    def test_round_trip_tables_and_trace(self, ours_model_set, base_model_set):
        for model_set in (ours_model_set, base_model_set):
            back = pickle.loads(pickle.dumps(model_set))
            assert_same_tables(model_set, back)
            gen = dict(num_ues=60, start_hour=18, num_hours=2, seed=11)
            assert TrafficGenerator(back).generate(**gen) == TrafficGenerator(
                model_set
            ).generate(**gen)


# ---------------------------------------------------------------------------
# The checked load boundary
# ---------------------------------------------------------------------------

def _first_edge(data):
    """Device, hour and first edge-bearing state of cluster 0 of a dump."""
    device = "PHONE"
    hour = sorted(data["models"][device], key=int)[0]
    chain = data["models"][device][hour]["clusters"][0]["chain"]
    state = next(s for s, edges in chain.items() if len(edges) >= 1)
    return device, hour, chain, state


class TestLoadRejectsCorruptFiles:
    @pytest.fixture()
    def dump(self, ours_model_set):
        return json.loads(json.dumps(ours_model_set.to_dict()))

    def load(self, data, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        return ModelSet.load(path)

    def test_clean_file_loads(self, dump, tmp_path, ours_model_set):
        assert self.load(dump, tmp_path).content_hash() == ours_model_set.content_hash()

    def test_nan_knot(self, dump, tmp_path):
        device, hour, chain, state = _first_edge(dump)
        edge = next(
            e for edges in chain.values() for e in edges
            if e["sojourn"]["family"] == "empirical"
        )
        edge["sojourn"]["quantiles"][0] = math.nan
        with pytest.raises(ValueError, match=rf"model\.json: .*{device}/h{hour}/c0: chain: .*non-finite"):
            self.load(dump, tmp_path)

    def test_negative_probability(self, dump, tmp_path):
        device, hour, chain, state = _first_edge(dump)
        edges = chain[state]
        extra = dict(edges[0], probability=-0.5)
        edges[0]["probability"] += 0.5
        edges.append(extra)
        with pytest.raises(ValueError, match=rf"{device}/h{hour}/c0: edge_prob: .*-0\.5"):
            self.load(dump, tmp_path)

    def test_out_of_range_cluster_id(self, dump, tmp_path):
        device = "PHONE"
        hour = sorted(dump["models"][device], key=int)[0]
        hm = dump["models"][device][hour]
        ue = next(iter(hm["assignment"]))
        hm["assignment"][ue] = len(hm["clusters"]) + 3
        with pytest.raises(
            ValueError,
            match=rf"{device}/h{hour}/c{len(hm['clusters']) + 3}: assign_vals: .*out of range",
        ):
            self.load(dump, tmp_path)

    def test_forbidden_edge(self, dump, tmp_path):
        device, hour, chain, _ = _first_edge(dump)
        chain["DEREGISTERED"] = [
            {
                "event": "HO",
                "target": "HO_S",
                "probability": 1.0,
                "sojourn": {"family": "poisson", "rate": 1.0},
            }
        ]
        with pytest.raises(ValueError, match=rf"{device}/h{hour}/c0: edge_event: forbidden edge DEREGISTERED --HO-->"):
            self.load(dump, tmp_path)

    def test_device_without_hours(self, dump, tmp_path):
        dump["models"]["PHONE"] = {}
        with pytest.raises(ValueError, match="PHONE: no fitted hours"):
            self.load(dump, tmp_path)

    def test_cli_check_reports_the_problem(self, dump, tmp_path, capsys):
        from repro.cli.main import main

        device, hour, chain, _ = _first_edge(dump)
        chain["DEREGISTERED"] = [
            {
                "event": "HO",
                "target": "HO_S",
                "probability": 1.0,
                "sojourn": {"family": "poisson", "rate": 1.0},
            }
        ]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dump))
        assert main(["check", "--model", str(path)]) == 1
        assert "PROBLEM:" in capsys.readouterr().out


def _cluster0(data):
    """Device, hour and cluster 0 of the first phone hour of a dump."""
    hour = sorted(data["models"]["PHONE"], key=int)[0]
    return "PHONE", hour, data["models"]["PHONE"][hour]["clusters"][0]


def _edges(cluster, family):
    return [
        e for edges in cluster["chain"].values() for e in edges
        if e["sojourn"]["family"] == family
    ]


def _halve_first_row(cluster):
    for edge in next(e for e in cluster["chain"].values() if e):
        edge["probability"] *= 0.5


def _halve_first_events(cluster):
    probs = cluster["first_event"]["event_probs"]
    for event in probs:
        probs[event] *= 0.5


#: One corrupted v1 file per kind of problem the load reports: (fixture,
#: mutation of (dump, cluster 0), the problem it must report).  ``{w}``
#: stands for the device, hour and cluster.
CORRUPTIONS = {
    "unknown state": ("ours", lambda d, c: c["chain"].update(NOPE=[]),
                      r"{w}: chain: state 'NOPE' unknown"),
    "unknown target": ("ours", lambda d, c: next(e for e in c["chain"].values() if e)[0].update(target="NOPE"),
                       r"{w}: chain: target 'NOPE' unknown"),
    "forbidden edge": ("ours", lambda d, c: c["chain"].update(DEREGISTERED=[v1_edge(EventType.HO, "HO_S", 1.0, rate=1.0)]),
                       r"{w}: edge_event: forbidden edge DEREGISTERED --HO-->"),
    "wrong target": ("ours", lambda d, c: c["chain"].update(DEREGISTERED=[v1_edge(EventType.ATCH, "HO_S", 1.0, rate=1.0)]),
                     r"{w}: edge_target: edge DEREGISTERED --ATCH--> HO_S disagrees"),
    "NaN probability": ("ours", lambda d, c: next(e for e in c["chain"].values() if e)[0].update(probability=math.nan),
                        r"{w}: edge_prob: .* has probability nan"),
    "row sum": ("ours", lambda d, c: _halve_first_row(c), r"{w}: edge_prob: .*sum to 0\.5"),
    "negative knot": ("ours", lambda d, c: _edges(c, "empirical")[0]["sojourn"]["quantiles"].append(-1.0),
                      r"{w}: chain: .*negative durations"),
    "empty knots": ("ours", lambda d, c: _edges(c, "empirical")[0]["sojourn"].update(quantiles=[]),
                    r"{w}: chain: .*at least one sample"),
    "unknown family": ("ours", lambda d, c: _edges(c, "empirical")[0]["sojourn"].update(family="weibull"),
                       r"{w}: chain: .*unknown family 'weibull'"),
    "negative rate": ("base", lambda d, c: _edges(c, "poisson")[0]["sojourn"].update(rate=-1.0),
                      r"{w}: chain: .*rate must be positive and finite"),
    "first-event sum": ("ours", lambda d, c: _halve_first_events(c), r"{w}: fe_prob: probabilities do not sum to 1"),
    "NaN first event": ("ours", lambda d, c: _halve_first_events(c) or c["first_event"]["event_probs"].update(
        {next(iter(c["first_event"]["event_probs"])): math.nan}), r"{w}: fe_prob: first event \w+ has probability nan"),
    "p_active": ("ours", lambda d, c: c["first_event"].update(p_active=1.5), r"{w}: p_active: must be in \[0, 1\]"),
    "NaN offset": ("ours", lambda d, c: c["first_event"]["offset"].append(math.nan),
                   r"{w}: first_event: offset: .*non-finite"),
    "negative overlay": ("base", lambda d, c: c["overlay_rates"].update(HO=-1.0),
                         r"{w}: overlay_rates: rate negative or not finite"),
    "impossible first event": ("sa", lambda d, c: c["first_event"]["event_probs"].update(TAU=0.0),
                               r"{w}: fe_event: first-event types \['TAU'\] have no canonical source"),
    "no clusters": ("ours", lambda d, c: d["models"]["PHONE"][sorted(d["models"]["PHONE"], key=int)[0]].update(clusters=[]),
                    r"{w}: num_ues: no clusters"),
    "cluster id": ("ours", lambda d, c: d["models"]["PHONE"][sorted(d["models"]["PHONE"], key=int)[0]]["assignment"].update(
        {str(d["device_ues"]["PHONE"][0]): 99}), r"PHONE/h\d+/c99: assign_vals: cluster id out of range"),
    "non-integral count": ("ours", lambda d, c: c.update(num_ues=1.5), r"{w}: num_ues: 1\.5 is not an integer"),
}


class TestCorruptFilesReported:
    """``repro check`` names device, hour, cluster and field of every kind
    of problem."""

    @pytest.fixture(scope="class")
    def dumps(self, ours_model_set, base_model_set):
        return {
            "ours": json.dumps(ours_model_set.to_dict()),
            "base": json.dumps(base_model_set.to_dict()),
            "sa": json.dumps(scale_to_sa(ours_model_set).to_dict()),
        }

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_check_reports(self, dumps, kind, tmp_path, capsys):
        from repro.cli.main import main

        fixture, mutate, problem = CORRUPTIONS[kind]
        data = json.loads(dumps[fixture])
        device, hour, cluster = _cluster0(data)
        mutate(data, cluster)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--model", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"PROBLEM: {path}: ")
        assert re.search(problem.format(w=f"{device}/h{hour}/c0"), out), out


class TestJsonRoundTrip:
    """The v1 writer reads the tables: a fitted model's file loads back
    and saves byte for byte."""

    @pytest.mark.parametrize("method", ["base", "v1", "v2", "ours"])
    def test_fitted_file_saves_identically(self, ground_truth_trace, ours_model_set,
                                           base_model_set, method, tmp_path):
        model_set = {"ours": ours_model_set, "base": base_model_set}.get(method) or fit_method(
            method, ground_truth_trace, theta_n=25, trace_start_hour=TRACE_START_HOUR,
        )
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        model_set.save(first)
        back = ModelSet.load(first)
        back.save(second)
        assert first.read_bytes() == second.read_bytes()
        assert back.content_hash() == model_set.content_hash()

    def test_columns_rebuild_the_tables(self, ours_model_set, base_model_set):
        for model_set in (ours_model_set, base_model_set):
            for hours in model_set.models.values():
                for hm in hours.values():
                    back = type(hm).from_columns(hm.machine_kind, **hm.columns())
                    for name in GENERATOR_COLUMNS + VIEW_COLUMNS:
                        assert bits_equal(getattr(back, name), getattr(hm, name)), name


# ---------------------------------------------------------------------------
# Fuzzing the v1 reader
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_dumps():
    """Small fitted models (both sojourn families, with overlays) as v1 JSON."""
    train = simulate_ground_truth(
        {DeviceType.PHONE: 12, DeviceType.TABLET: 6}, 3600.0, start_hour=17, seed=8
    )
    return [
        json.dumps(fit_method(method, train, theta_n=4, trace_start_hour=17).to_dict())
        for method in ("ours", "base")
    ]


def _cluster_paths(data):
    """``(path, value)`` of every key and value inside the clusters."""
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                out.append((path + [("key", key)], key))
                walk(value, path + [key])
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, path + [i])
        out.append((path, node))

    for device, hours in data["models"].items():
        for hour, hm in hours.items():
            for c, cluster in enumerate(hm["clusters"]):
                walk(cluster, ["models", device, hour, "clusters", c])
    return out


def _replacements(value):
    """What a fuzzed field may become."""
    if isinstance(value, bool):
        return [None]
    if isinstance(value, (int, float)):
        return [math.nan, math.inf, -math.inf, -abs(value) - 1.0, str(value), 0]
    if isinstance(value, str):
        return ["NOPE", "CM_IDLE", "TAU_S_IDLE", "ATCH", "TAU", 99, "2.5"]
    if isinstance(value, list) and all(isinstance(v, (int, float)) for v in value):
        return [[], list(reversed(value)), value + [math.nan], value + [-1.0]]
    if isinstance(value, list):  # a state's edges
        return [[], list(reversed(value)), value * 2]
    return [{}]


@st.composite
def mutations(draw, dumps):
    data = json.loads(draw(st.sampled_from(dumps)))
    path, value = draw(st.sampled_from(_cluster_paths(data)))
    device, hour, cluster = path[1], path[2], path[4]
    if path and isinstance(path[-1], tuple):  # a dict key
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1][1]
        if draw(st.booleans()):
            del parent[key]  # dropped key
        else:
            new = draw(st.sampled_from(["NOPE", "CM_IDLE", "TAU_S_IDLE", "ATCH", "HO_S"]))
            parent[new] = parent.pop(key)
    elif draw(st.integers(0, 4)) == 0 and isinstance(value, dict) and value and all(
        isinstance(v, (int, float)) for v in value.values()
    ):
        for k in value:  # a row that no longer sums to 1
            value[k] = value[k] * 0.5
    else:
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = draw(st.sampled_from(_replacements(value)))
    return data, device, hour, cluster


class TestReaderFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_mutated_file_rejected_or_usable(self, fuzz_dumps, data):
        dump, device, hour, cluster = data.draw(mutations(fuzz_dumps))
        try:
            model_set = ModelSet.from_dict(dump)
        except KeyError:
            return  # a missing key or unknown event name, as pinned in test_failure_injection
        except ValueError as exc:
            assert re.search(rf"{device}/h{hour}/c\d+: \w+", str(exc)), str(exc)
            return
        for hours in model_set.models.values():
            for hm in hours.values():
                assert hm.problems() == []
        trace = TrafficGenerator(model_set).generate(
            20, start_hour=int(hour), num_hours=1, seed=1
        )
        assert np.isfinite(trace.times).all()
