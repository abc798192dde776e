"""Manifest loading, splitting, balancing, subsampling and filtering."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from camtrap import manifest as mf

# the field-survey distribution used by the large-scale fixtures below
SURVEY_SPECIES_COUNTS = {
    "bear": 305,
    "chital": 796,
    "dhole": 764,
    "elephant": 950,
    "gaur": 824,
    "leopard": 941,
    "muntjac": 139,
    "sambar": 421,
    "tiger": 849,
    "wild_pig": 361,
}
SURVEY_NEGATIVES = 2720  # brings the corpus to 9070 records


def record(i, species="tiger", individual=None, illumination="day"):
    return mf.ImageRecord(
        id=f"r{i}",
        path=f"r{i}.ppm",
        species=species,
        individual=individual,
        illumination=illumination,
        width=96,
        height=96,
    )


def survey_manifest():
    recs = []
    i = 0
    for species, n in SURVEY_SPECIES_COUNTS.items():
        for _ in range(n):
            recs.append(record(i, species))
            i += 1
    for _ in range(SURVEY_NEGATIVES):
        recs.append(record(i, "unclassified"))
        i += 1
    return mf.Manifest(tuple(recs))


class TestRecords:
    def test_unknown_species_rejected(self):
        with pytest.raises(mf.ManifestError):
            record(0, species="wolf")

    def test_individual_only_for_tagged_species(self):
        record(0, species="tiger", individual="tiger_00")
        record(1, species="leopard", individual="leopard_03")
        with pytest.raises(mf.ManifestError):
            record(2, species="bear", individual="bear_00")

    def test_illumination_and_dims_validated(self):
        with pytest.raises(mf.ManifestError):
            record(0, illumination="dusk")
        with pytest.raises(mf.ManifestError):
            mf.ImageRecord("a", "a.ppm", "tiger", None, "day", 0, 96)

    def test_has_animal(self):
        assert record(0, "tiger").has_animal
        assert not record(1, "unclassified").has_animal

    def test_duplicate_ids_rejected(self):
        with pytest.raises(mf.ManifestError):
            mf.Manifest((record(0), record(0)))


class TestLoadSave:
    def test_roundtrip(self, tmp_path):
        m = mf.Manifest((record(0, "tiger", "tiger_00"), record(1, "unclassified")))
        path = tmp_path / "m.csv"
        mf.save_manifest(m, path)
        loaded = mf.load_manifest(path)
        assert loaded.records == m.records

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(mf.MANIFEST_HEADER) + "\n")
        assert len(mf.load_manifest(path)) == 0

    def test_survey_counts(self, tmp_path):
        m = survey_manifest()
        path = tmp_path / "m.csv"
        mf.save_manifest(m, path)
        loaded = mf.load_manifest(path)
        counts = loaded.species_counts()
        for species, n in SURVEY_SPECIES_COUNTS.items():
            assert counts[species] == n
        assert counts["unclassified"] == SURVEY_NEGATIVES
        assert len(loaded) == 9070

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            ",".join(mf.MANIFEST_HEADER) + "\n"
            "a,a.ppm,tiger,,day,96,96\n"
            "b,b.ppm,wolf,,day,96,96\n"
        )
        with pytest.raises(mf.ManifestError, match=r":3:"):
            mf.load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("id,label\n")
        with pytest.raises(mf.ManifestError):
            mf.load_manifest(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(",".join(mf.MANIFEST_HEADER) + "\na,b,c\n")
        with pytest.raises(mf.ManifestError, match=r":2:"):
            mf.load_manifest(path)


class TestStratifiedSplit:
    def test_survey_70_30(self):
        split = mf.stratified_split(survey_manifest(), 0.7, seed=0, stratify_by="presence")
        assert len(split.train) == 6349
        assert len(split.validation) == 2721

    def test_exact_half_single_stratum(self):
        m = mf.Manifest(tuple(record(i) for i in range(10)))
        split = mf.stratified_split(m, 0.5, seed=1, stratify_by="species")
        assert len(split.train) == 5 and len(split.validation) == 5
        assert set(split.train) | set(split.validation) == set(m.ids())
        assert not set(split.train) & set(split.validation)

    def test_seeds_change_assignment_not_counts(self):
        m = mf.Manifest(
            tuple(record(i, "tiger") for i in range(20))
            + tuple(record(i + 20, "unclassified") for i in range(10))
        )
        a = mf.stratified_split(m, 0.7, seed=0, stratify_by="presence")
        b = mf.stratified_split(m, 0.7, seed=1, stratify_by="presence")
        assert set(a.train) != set(b.train)
        assert len(a.train) == len(b.train)
        by_id = m.by_id()
        for split in (a, b):
            pos = sum(by_id[i].has_animal for i in split.train)
            assert pos == 14  # round-half-up(0.7 * 20)

    def test_determinism(self):
        m = survey_manifest()
        a = mf.stratified_split(m, 0.7, seed=5)
        b = mf.stratified_split(m, 0.7, seed=5)
        assert a == b

    def test_small_stratum_rejected(self):
        m = mf.Manifest((record(0, "tiger"), record(1, "unclassified"), record(2, "unclassified")))
        with pytest.raises(ValueError):
            mf.stratified_split(m, 0.5, seed=0, stratify_by="presence")

    def test_stratum_key_errors_keep_their_messages(self):
        m = mf.Manifest((record(0, "tiger", "tiger_00"), record(1, "tiger"), record(2, "tiger", "tiger_00")))
        for corpus in (m, mf.Manifest(())):  # checked before any record is read
            with pytest.raises(ValueError, match="^unknown stratify_by 'colour'$"):
                mf.stratified_split(corpus, 0.5, seed=0, stratify_by="colour")
        with pytest.raises(mf.StratumError, match="^record 'r1' has no individual label$"):
            mf.stratified_split(m, 0.5, seed=0, stratify_by="individual")

    def test_fraction_bounds(self):
        m = mf.Manifest(tuple(record(i) for i in range(4)))
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                mf.stratified_split(m, bad, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(st.integers(2, 30), min_size=1, max_size=4),
        fraction=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32),
    )
    def test_disjoint_and_complete(self, counts, fraction, seed):
        species = ["tiger", "leopard", "bear", "chital"]
        recs, i = [], 0
        for sp, n in zip(species, counts):
            for _ in range(n):
                recs.append(record(i, sp))
                i += 1
        m = mf.Manifest(tuple(recs))
        split = mf.stratified_split(m, fraction, seed, stratify_by="species")
        assert not set(split.train) & set(split.validation)
        assert set(split.train) | set(split.validation) == set(m.ids())


class TestBalance:
    def test_min_count_rule(self):
        recs = (
            tuple(record(i, "bear") for i in range(5))
            + tuple(record(i + 5, "chital") for i in range(3))
            + tuple(record(i + 8, "dhole") for i in range(7))
        )
        balanced = mf.balance_classes(mf.Manifest(recs), "species", seed=0)
        assert balanced.species_counts() == Counter(bear=3, chital=3, dhole=3)

    def test_fixed_point(self):
        m = mf.Manifest(
            tuple(record(i, "bear") for i in range(3))
            + tuple(record(i + 3, "chital") for i in range(3))
        )
        assert mf.balance_classes(m, "species", seed=0).records == m.records

    def test_order_preserved(self):
        recs = tuple(record(i, "bear") for i in range(6)) + tuple(
            record(i + 6, "chital") for i in range(2)
        )
        balanced = mf.balance_classes(mf.Manifest(recs), "species", seed=3)
        ids = balanced.ids()
        assert ids == sorted(ids, key=lambda x: int(x[1:]))

    def test_individual_key(self):
        recs = tuple(record(i, "tiger", "tiger_00") for i in range(4)) + tuple(
            record(i + 4, "tiger", "tiger_01") for i in range(9)
        )
        balanced = mf.balance_classes(mf.Manifest(recs), "individual", seed=0)
        counts = Counter(r.individual for r in balanced)
        assert counts == Counter({"tiger_00": 4, "tiger_01": 4})

    @settings(max_examples=30, deadline=None)
    @given(counts=st.lists(st.integers(1, 20), min_size=2, max_size=4), seed=st.integers(0, 999))
    def test_equal_counts_property(self, counts, seed):
        species = ["tiger", "leopard", "bear", "chital"]
        recs, i = [], 0
        for sp, n in zip(species, counts):
            for _ in range(n):
                recs.append(record(i, sp))
                i += 1
        balanced = mf.balance_classes(mf.Manifest(tuple(recs)), "species", seed)
        assert set(balanced.species_counts().values()) == {min(counts[: len(balanced.species_counts())])}


class TestSubsample:
    def test_identity_at_one(self):
        m = survey_manifest()
        assert mf.subsample_fraction(m, 1.0, seed=0) is m

    def test_survey_fraction_point_two(self):
        m = survey_manifest()
        sub = mf.subsample_fraction(m, 0.2, seed=0, stratify_by="presence")
        assert len(sub) == 1814
        animal = sum(r.has_animal for r in sub)
        assert animal == 1270  # round-half-up(0.2 * 6350)

    def test_determinism(self):
        m = survey_manifest()
        a = mf.subsample_fraction(m, 0.4, seed=9)
        b = mf.subsample_fraction(m, 0.4, seed=9)
        assert a.records == b.records

    def test_fraction_out_of_range(self):
        m = mf.Manifest((record(0),))
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                mf.subsample_fraction(m, bad, seed=0)


class TestFilter:
    def test_has_individual_keeps_labeled_records(self):
        m = mf.Manifest((record(0, "tiger", "tiger_00"), record(1, "tiger"), record(2, "leopard", "leopard_00"),
                         record(3, "chital"), record(4, "leopard", "leopard_01", "night")))
        assert mf.filter_manifest(m, has_individual=True).ids() == ["r0", "r2", "r4"]
        assert mf.filter_manifest(m, species=["leopard"], has_individual=True).ids() == ["r2", "r4"]
        assert len(mf.filter_manifest(m, species=["chital"], has_individual=True)) == 0

    def test_illumination_filter_empties(self):
        m = mf.Manifest(tuple(record(i, illumination="night") for i in range(4)))
        assert len(mf.filter_manifest(m, illumination="day")) == 0

    def test_species_filter_counts(self):
        m = survey_manifest()
        assert len(mf.filter_manifest(m, species=["tiger"])) == 849

    def test_unknown_species_rejected(self):
        with pytest.raises(ValueError):
            mf.filter_manifest(survey_manifest(), species=["wolf"])

    def test_universal_filter_is_identity(self):
        m = mf.Manifest(tuple(record(i) for i in range(5)))
        assert mf.filter_manifest(m).records == m.records


class TestSelect:
    def test_select_preserves_order(self):
        m = mf.Manifest(tuple(record(i) for i in range(5)))
        sel = mf.select_records(m, ["r3", "r1"])
        assert sel.ids() == ["r1", "r3"]

    def test_unknown_id_rejected(self):
        m = mf.Manifest((record(0),))
        with pytest.raises(ValueError):
            mf.select_records(m, ["nope"])
