"""The fitted tables: grouped exactness, the lowering oracle, pinned
hashes, pickling and the checked load boundary.

An :class:`~repro.model.model_set.HourModel` *is* the generator's
tables.  The fitter writes them with grouped array operations; they must
equal, array by array and bit for bit, the object-walk lowering kept as
``oracle.compile`` applied to the model's own cluster view.  Together
with ``test_compiled_fit``'s ``to_dict`` equality against the
per-segment fit oracle, that pins the tables to the original
fit-then-lower pipeline.
"""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import fit_method
from repro.generator import TrafficGenerator
from repro.groundtruth import simulate_ground_truth
from repro.model import ModelSet
from repro.model.grouped import (
    group_means,
    grouped_cumsum,
    grouped_knots,
    linear_quantiles,
)
from repro.model.model_set import GENERATOR_COLUMNS, VIEW_COLUMNS
from repro.trace import DeviceType

from conftest import TRACE_START_HOUR
from oracle import compile as oracle_compile

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Columns the oracle lowering produces under the same names.
LOWERED = (
    "state_deg", "sel_key", "edge_event", "edge_target", "edge_kind",
    "edge_rate", "edge_knot_ptr", "knot_key", "knot_p", "knot_v",
    "p_active", "fe_key", "fe_event", "fe_state", "foff_key", "foff_ptr",
    "foff_p", "foff_v", "assign_keys", "assign_vals", "weights_cum",
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
        """``from_clusters`` of the JSON round trip rebuilds equal tables."""
        for model_set in (ours_model_set, base_model_set):
            back = ModelSet.from_dict(model_set.to_dict())
            assert_same_tables(model_set, back)
            assert back.content_hash() == model_set.content_hash()


# ---------------------------------------------------------------------------
# Pinned hashes: fitted models and their generated traces are unchanged
# ---------------------------------------------------------------------------

#: (method, training seed, max_cdf_points) -> (model hash, trace hash).
PINNED = {
    ('base', 5, 512): (
        "0cad447dbf816b25696ec8eb2c3949ba5ea107a745b8dc419f8bd707ff0553e2",
        "b649505336bf8b73ccce03d7c3eee141f66ea675bc16266f2f5d63e2389686c5",
    ),
    ('base', 6, 16): (
        "6c940bf518bb2816a14e7e04318065ffbad514adc697315e25fa7c6bbbd4cdcb",
        "1efb5d79cc645389d33ee13481ec6323b10b5963a5b1884dd281ebd15796aae2",
    ),
    ('v1', 5, 512): (
        "09ae144937314bbca3d7dd6166906cf0014bedf4b61645eb6411bcdda9e364bf",
        "ba6422df5b138fce161be5569b3d3c1e4c7a4ed6de87795011f17aca6eb38bc7",
    ),
    ('v1', 6, 16): (
        "5a5e68ec483467f69985faf6bb9a781576388ab6ad85378a98796805baef4b63",
        "b17e759711319db90917b1e6d25cda12cc7382df2e6f80e8ee000b447b726fe4",
    ),
    ('v2', 5, 512): (
        "d290ff5bd07b298e3a7614ff7d67742cec6e8a57a88afa8def279a81fa120c1c",
        "2820255948c0b81d9caa7d8b6527a12858ea2d2cce7759c136d38c8b23a178af",
    ),
    ('v2', 6, 16): (
        "37c1733a3c4d96bda8db5eb9cd96497f1dd1a3af4f5285db709160e0c8baf45b",
        "15643bf1528d8e08afd65b56b1949075112e39b07f22852979bb65611e38e9ac",
    ),
    ('ours', 5, 512): (
        "3d737dde34b24cf2d0e8e94604a3c2687c247f4a765c9453737df18cf9f37624",
        "9d2690263f8c3538b68ad80d848a5365889e94671b62d302da8c245972d0732a",
    ),
    ('ours', 6, 16): (
        "672fa41c7ed2495e09afd079fc97093d3fded5c51e03c38b47ed271ee28faff4",
        "eca2e170435eed38c9c3fd66918a9f777ecee6e282c6bbe66deabd9c8e55ea76",
    ),
}


@pytest.fixture(scope="module")
def pin_traces():
    return {
        seed: simulate_ground_truth(
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

    def test_derived_view_rebuilt_after_unpickling(self, ours_model_set):
        """The fitted cluster view is dropped on pickling and rebuilt
        from the tables, identical."""
        hm = next(iter(next(iter(ours_model_set.models.values())).values()))
        hm.clusters  # build the view before pickling
        back = pickle.loads(pickle.dumps(hm))
        assert back._clusters is None
        assert back.to_dict() == hm.to_dict()


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
        with pytest.raises(ValueError, match=rf"{device}/h{hour}/c0: forbidden edge DEREGISTERED --HO-->"):
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
