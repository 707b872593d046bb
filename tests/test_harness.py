import argparse
import json
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from maxnit import assembly, cli, harness, linsolve
from maxnit.analysis import boundary_data_norm, l2_errors, triple_norm
from maxnit.assembly import CORNER_STRATEGIES, Params, assemble_global
from maxnit.cli import main
from maxnit.harness import (
    ConfigError,
    StudyConfig,
    build_case,
    build_mesh,
    default_configs,
    run_studies,
    run_study,
)
from maxnit.io import _CSV_COLUMNS, emit_table, write_report_csv
from maxnit.mesh import MeshError

from conftest import validate_mesh


def quick_config(**kwargs):
    defaults = dict(
        case="square",
        family="uniform",
        levels=[2, 4],
        params=Params(nu=1.0, L0=0.5, c_u=0.5),
    )
    defaults.update(kwargs)
    return StudyConfig(**defaults)


class TestConfigValidation:
    def test_levels_must_increase(self):
        with pytest.raises(ConfigError):
            quick_config(levels=[4, 2])
        with pytest.raises(ConfigError):
            quick_config(levels=[])

    def test_family_compatibility(self):
        with pytest.raises(ConfigError):
            quick_config(case="lshape:1", family="uniform")
        with pytest.raises(ConfigError):
            quick_config(case="curved-l:2", family="crisscross")
        quick_config(case="curved-l:2", family="curved-mapped")  # allowed

    def test_unknown_case_or_emit(self, tmp_path):
        with pytest.raises(ConfigError):
            quick_config(case="cube")
        with pytest.raises(ConfigError):
            quick_config(case="lshape:3")
        with pytest.raises(ConfigError, match=r"unknown emit formats \['pdf'\]"):
            run_studies([quick_config()], tmp_path, ("pdf",))

    def test_frozen_after_construction(self):
        cfg = quick_config()
        with pytest.raises(FrozenInstanceError):
            cfg.levels = [0]
        with pytest.raises(ConfigError):
            replace(cfg, levels=[0])  # replace re-runs the checks
        with pytest.raises(AttributeError):
            cfg.levels.append(3)  # the levels are a tuple
        assert cfg.levels == (2, 4)

    def test_levels_are_kept_as_tuples(self):
        assert StudyConfig("square", "uniform", [2, 4]).levels == (2, 4)
        assert quick_config(levels=[2, 4]) == quick_config(levels=(2, 4))
        for bad in ("24", 4, {2: 4}):
            with pytest.raises(ConfigError, match="levels must be a list"):
                quick_config(levels=bad)

    def test_fields_define_the_study_and_nothing_else(self):
        # where files go and which formats are written belong to the run;
        # the corner strategy belongs to the study, not to the matrix's Params
        names = [f.name for f in fields(StudyConfig)]
        assert names == ["case", "family", "levels", "params", "label", "corner_strategy"]

    def test_label_must_name_a_file(self):
        # `:` leaves the file names, so a label of colons alone would write ".csv"
        for label in (":", "::"):
            with pytest.raises(ConfigError, match=f"label {label!r} leaves an empty file name"):
                quick_config(label=label)
        assert quick_config(label="a:").label == "a:"
        assert quick_config(label="").label == ""

    @pytest.mark.parametrize("params", [{"nu": 1.0}, None])
    def test_params_must_be_params(self, monkeypatch, params):
        meshes = counting(monkeypatch, harness, "build_mesh")
        with pytest.raises(ConfigError, match="params must be a Params"):
            StudyConfig("square", "uniform", [2], params=params)
        assert meshes == []

    def test_unknown_corner_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown corner strategy 'average'"):
            quick_config(corner_strategy="average")
        with pytest.raises(ConfigError, match="unknown corner strategy None"):
            quick_config(corner_strategy=None)
        # a weak formulation has no corner unknowns to treat
        with pytest.raises(ConfigError, match="corner strategy 'free' needs formulation "
                           "'stabilised-strong', not 'stabilised-nitsche'"):
            quick_config(case="lshape:1", family="crisscross", levels=[8], params=Params(),
                         corner_strategy="free")
        # the square has no re-entrant corner: there every strategy gives the
        # both-zero numbers
        strong = Params(formulation="stabilised-strong")
        for strategy in ("free", "bisector-normal"):
            with pytest.raises(ConfigError, match=f"corner strategy '{strategy}' needs a "
                               "re-entrant corner, and the square has none"):
                quick_config(params=strong, corner_strategy=strategy)
            for case, family in (("lshape:1", "crisscross"), ("curved-l:1", "powell-sabin")):
                quick_config(case=case, family=family, params=strong, corner_strategy=strategy)


class TestBuildMesh:
    def test_families(self):
        assert build_mesh("square", "uniform", 2).n_triangles == 8
        assert build_mesh("square", "crisscross", 2).n_triangles == 16
        assert build_mesh("square", "powell-sabin", 2).n_triangles == 48
        assert build_mesh("lshape", "crisscross", 4).domain == "lshape"
        assert build_mesh("curved-l", "curved-mapped", 4).domain == "curved-l"
        assert build_mesh("curved-l", "powell-sabin", 4).domain == "curved-l"

    def test_incompatible_pair_rejected(self):
        with pytest.raises(ConfigError, match="incompatible"):
            build_mesh("lshape", "uniform", 4)

    def test_takes_a_domain_not_a_case(self):
        for name, family, level in (("lshape:zz", "crisscross", 4), ("square:7", "uniform", 2),
                                    ("lshape:1", "crisscross", 4), ("cube", "uniform", 2)):
            with pytest.raises(ConfigError, match=f"unknown domain {name!r}"):
                build_mesh(name, family, level)

    @pytest.mark.parametrize("domain, level", [("square", 0), ("square", 2.0), ("square", True),
                                               ("lshape", 3), ("curved-l", -2)])
    def test_bad_level_rejected(self, domain, level):
        with pytest.raises(ConfigError, match=f"level {level!r} of 'powell-sabin' on {domain!r}"):
            build_mesh(domain, "powell-sabin", level)


class TestTables:
    @pytest.mark.parametrize("domain, family", list(harness._MESHES))
    def test_every_mesh_builds_and_validates(self, domain, family):
        mesh = build_mesh(domain, family, 4)
        validate_mesh(mesh)
        assert mesh.domain == domain

    @pytest.mark.parametrize("name", list(harness._CASES))
    def test_every_case_builds(self, name):
        assert build_case(name).domain == name.split(":")[0]
        quick_config(case=name, family="powell-sabin", levels=[2])

    def test_cli_family_choices_are_the_table_families(self):
        sub = next(
            a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        mesh_args = {a.dest: a for a in sub.choices["mesh"]._actions}
        for dest, column in (("domain", 0), ("family", 1)):
            expected = list(dict.fromkeys(key[column] for key in harness._MESHES))
            assert list(mesh_args[dest].choices) == expected

    def test_incompatible_pairs_rejected_before_any_mesh(self, monkeypatch, tmp_path):
        meshes = counting(monkeypatch, harness, "build_mesh")
        pairs = [
            (name, family)
            for name in harness._CASES
            for family in harness._FAMILIES
            if (name.split(":")[0], family) not in harness._MESHES
        ]
        # square: curved-mapped; each L-shape case: uniform and curved-mapped;
        # each curved-L case: uniform and crisscross
        assert len(pairs) == 1 + 2 * 3 + 2 * 3
        for name, family in pairs:
            with pytest.raises(ConfigError, match="incompatible"):
                quick_config(case=name, family=family, levels=[2])
            path = tmp_path / "study.json"
            path.write_text(json.dumps({"case": name, "family": family, "levels": [2]}))
            assert main(["run", "--config", str(path)]) == 2
        assert meshes == []


class TestRunStudy:
    def test_single_level_has_no_rates(self):
        report = run_study(quick_config(levels=[4]))
        assert len(report.reports) == 1
        assert report.rates_u == report.rates_curl == [None]

    def test_smooth_square_final_rates(self):
        config = quick_config(
            levels=[8, 16, 32],
            params=Params(nu=1.0, L0=0.1, c_u=0.1, N_u=100.0, N_p=100.0),
        )
        report = run_study(config)
        assert report.rates_u[-1] == pytest.approx(2.0, abs=0.1)
        assert report.rates_curl[-1] == pytest.approx(1.0, abs=0.1)
        errs = [r.err_u for r in report.reports]
        assert errs == sorted(errs, reverse=True)  # strict error decrease
        for rep in report.reports:
            assert rep.triple is not None and rep.triple > 0
            assert rep.data_norm is not None and rep.data_norm > 0

    def test_levels_annotated_with_context_on_failure(self, monkeypatch):
        build = harness.build_mesh

        def second_level_fails(case, family, level):
            if level == 4:
                raise ValueError("n_cells rejected")
            return build(case, family, level)

        monkeypatch.setattr(harness, "build_mesh", second_level_fails)
        with pytest.raises(ValueError, match="^level 4: n_cells rejected$"):
            run_study(quick_config(levels=[2, 4]))

    @pytest.mark.parametrize(
        "stage, context",
        [("build_mesh", "level 2: "), ("l2_errors", "level 2, tiny: ")],
    )
    def test_failure_keeps_exception_object(self, monkeypatch, stage, context):
        def broken(*args):
            raise TwoArgError("no result", 7)

        monkeypatch.setattr(harness, stage, broken)
        with pytest.raises(TwoArgError) as info:
            run_study(quick_config(levels=[2], label="tiny"))
        assert str(info.value) == context + "no result (code 7)"
        assert info.value.code == 7


class TwoArgError(ValueError):
    def __init__(self, what, code):
        super().__init__(f"{what} (code {code})")
        self.code = code


LSHAPE = Params(nu=1.0, L0=0.5, c_u=1.0, N_u=100.0, N_p=100.0)


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def ticking(clock, cost, fn):
    """`fn` that advances `clock` by `cost` seconds per call."""

    def wrapped(*args, **kwargs):
        clock.s += cost
        return fn(*args, **kwargs)

    return wrapped


def lshape_batch():
    return [
        StudyConfig(f"lshape:{n}", "crisscross", [4, 8], LSHAPE, label=f"n{n}")
        for n in (1, 2, 4)
    ]


class TestRunStudies:
    def test_matches_direct_composition(self):
        studies = run_studies(lshape_batch())
        for study in studies:
            cfg = study.config
            case = build_case(cfg.case)
            for level, rep in zip(cfg.levels, study.reports):
                mesh = build_mesh(case.domain, cfg.family, level)
                x = linsolve.solve(assemble_global(mesh, cfg.params, case)).coeffs
                direct = l2_errors(mesh, x, case)
                direct.triple = triple_norm(mesh, x, cfg.params)
                direct.data_norm = boundary_data_norm(mesh, case, cfg.params)
                assert rep.wall_ms >= 0.0
                assert replace(rep, wall_ms=0.0) == replace(direct, wall_ms=0.0)
        assert [s.config.label for s in studies] == ["n1", "n2", "n4"]

    def test_every_field_call_gets_an_m_by_2_float_array(self, monkeypatch, tmp_path):
        # the case fields convert nothing: every call that a study makes to
        # the four field callables hands them (m, 2) float64 points, on weak
        # and strong solves, norms and exports alike
        calls = {}

        def recording(name, fn):
            def wrapped(*args):
                calls.setdefault(name, []).append(args[-1])
                return fn(*args)

            return wrapped

        fields = ("exact_u", "exact_curl_u", "source_f", "dirichlet_u")
        base = harness.build_case

        def build_case(name):
            case = base(name)
            return replace(case, **{f: recording(f, getattr(case, f)) for f in fields})

        monkeypatch.setattr(harness, "build_case", build_case)
        strong = replace(LSHAPE, formulation="stabilised-strong")
        run_studies([
            StudyConfig("lshape:1", "crisscross", [2, 4], LSHAPE),
            StudyConfig("lshape:1", "crisscross", [2, 4], strong, label="free",
                        corner_strategy="free"),
            StudyConfig("square", "powell-sabin", [2]),  # f != 0
        ], str(tmp_path), ("csv", "vtk"))
        assert set(calls) == set(fields)
        for name, points in calls.items():
            for pts in points:
                assert type(pts) is np.ndarray and pts.dtype == np.float64, name
                assert pts.ndim == 2 and pts.shape[1] == 2, (name, pts.shape)

    def test_one_factorisation_per_matrix(self, monkeypatch):
        splu = counting(monkeypatch, linsolve.spla, "splu")
        meshes = counting(monkeypatch, harness, "build_mesh")
        run_studies(lshape_batch())
        assert len(splu) == 2
        assert len(meshes) == 2

    def test_mixed_batch_keeps_order_and_separate_factorisations(self, monkeypatch):
        weak = StudyConfig("lshape:1", "crisscross", [4], LSHAPE, label="weak")
        strong = StudyConfig(
            "lshape:1", "crisscross", [4],
            replace(LSHAPE, formulation="stabilised-strong"), label="strong",
        )
        alone = [run_study(c).reports[0] for c in (strong, weak)]
        splu = counting(monkeypatch, linsolve.spla, "splu")
        meshes = counting(monkeypatch, harness, "build_mesh")
        studies = run_studies([strong, weak])
        assert [s.config.label for s in studies] == ["strong", "weak"]
        assert (len(meshes), len(splu)) == (1, 2)
        for study, ref in zip(studies, alone):
            assert replace(study.reports[0], wall_ms=0.0) == replace(ref, wall_ms=0.0)

    def test_corner_strategies_share_one_assembly(self, monkeypatch):
        # table5-corner at level 8: three strong corner strategies and Nitsche;
        # one LU for the strong core, one for Nitsche
        strong = replace(LSHAPE, formulation="stabilised-strong")
        batch = [
            StudyConfig("lshape:1", "crisscross", [8], strong, label=s, corner_strategy=s)
            for s in CORNER_STRATEGIES
        ] + [StudyConfig("lshape:1", "crisscross", [8], LSHAPE, label="nitsche")]
        alone = [run_study(c).reports[0] for c in batch]
        splu = counting(monkeypatch, linsolve.spla, "splu")
        assembled = []
        assemble = harness.assemble_global

        def keep(*args):
            system = assemble(*args)
            m = system.matrix
            assembled.append((m, [a.tobytes() for a in (m.data, m.indices, m.indptr)]))
            return system

        monkeypatch.setattr(harness, "assemble_global", keep)
        strong_bc = counting(monkeypatch, harness, "apply_strong_bc")
        studies = run_studies(batch)
        assert (len(assembled), len(splu), len(strong_bc)) == (2, 2, 3)
        assert {id(args[0].matrix) for args in strong_bc} == {id(assembled[0][0])}
        for m, before in assembled:
            assert [a.tobytes() for a in (m.data, m.indices, m.indptr)] == before
        for study, ref in zip(studies, alone):
            assert replace(study.reports[0], wall_ms=0.0) == replace(ref, wall_ms=0.0)

    def test_lone_bordered_study_matches_direct_composition(self, monkeypatch):
        # a `free` study alone: the group's first system has a border, so the
        # LU is of a cut core, not of the reduced matrix itself
        params = replace(LSHAPE, formulation="stabilised-strong")
        cfg = StudyConfig("lshape:1", "crisscross", [8], params, corner_strategy="free")
        case = build_case(cfg.case)
        mesh = build_mesh(case.domain, cfg.family, 8)
        system = assembly.apply_strong_bc(assemble_global(mesh, params, case), mesh, case, "free")
        assert len(system.corner) == 2
        splu = counting(monkeypatch, linsolve.spla, "splu")
        x = linsolve.solve(system).coeffs
        direct = l2_errors(mesh, x, case)
        direct.triple = triple_norm(mesh, x, params)
        direct.data_norm = boundary_data_norm(mesh, case, params)
        (rep,) = run_study(cfg).reports
        assert [args[0].shape for args in splu] == [(system.matrix.shape[0] - 2,) * 2] * 2
        assert replace(rep, wall_ms=0.0) == replace(direct, wall_ms=0.0)

    def test_wall_ms_follows_the_sharing_rule(self, monkeypatch):
        # a clock that only the stages advance, each by its own power of two
        clock = SimpleNamespace(s=0.0)
        monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: clock.s))
        costs = [
            (harness, "build_mesh", 1), (harness, "assemble_global", 2),
            (assembly, "assemble_rhs", 4), (harness, "apply_strong_bc", 8),
            (harness, "factorize_system", 16), (harness, "solve", 32),
            (harness, "l2_errors", 64), (harness, "triple_norm", 128),
            (harness, "boundary_data_norm", 256),
        ]
        for owner, name, cost in costs:
            monkeypatch.setattr(owner, name, ticking(clock, cost, getattr(owner, name)))
        strong = replace(LSHAPE, formulation="stabilised-strong")
        batch = [
            StudyConfig(case, "crisscross", [8], strong, label=label, corner_strategy=s)
            for case, s, label in [
                ("lshape:1", "both-zero", "bz1"),
                ("lshape:2", "both-zero", "bz2"),
                ("lshape:4", "free", "free4"),
            ]
        ] + [
            StudyConfig(f"lshape:{n}", "crisscross", [8], LSHAPE, label=f"nitsche{n}")
            for n in (1, 2, 4)
        ]
        studies = run_studies(batch)
        # README rule: the mesh is shared by all six configs, each assembly
        # (with its first case's RHS) and each LU (the strong core, Nitsche)
        # by three; each config has its own solve (border, condition
        # estimate and refinement) and norms
        shared = 1 / 6 + (2 + 4 + 16) / 3
        own = 32 + 64 + 128 + 256
        expected = {
            "bz1": shared + 8 + own,
            "bz2": shared + 4 + 8 + own,
            "free4": shared + 4 + 8 + own,
            "nitsche1": shared + own,
            "nitsche2": shared + 4 + own,
            "nitsche4": shared + 4 + own,
        }
        wall = {s.config.label: s.reports[0].wall_ms for s in studies}
        assert wall == pytest.approx({k: 1e3 * v for k, v in expected.items()}, rel=1e-12)
        assert sum(wall.values()) == pytest.approx(1e3 * clock.s, rel=1e-12)

    def test_missing_out_dir_is_created(self, tmp_path):
        out = tmp_path / "missing" / "nested"
        run_studies([quick_config(levels=[2], label="tiny")], str(out), ("csv",))
        assert (out / "tiny.csv").read_text().startswith(",".join(_CSV_COLUMNS))

    def test_str_and_pathlike_out_dir(self, tmp_path):
        # the run's one directory may be a str or an os.PathLike
        batch = [quick_config(levels=[1], label=f"s{k}") for k in range(2)]
        for out_dir in (str(tmp_path / "od" / "a"), tmp_path / "od" / "b"):
            run_studies(batch, out_dir, ("csv",))
            assert sorted(p.name for p in (tmp_path / out_dir).iterdir()) == ["s0.csv", "s1.csv"]

    @pytest.mark.parametrize(
        "out_dir, emit, message",
        [
            ("out", ("csv", "markdown"), r"unknown emit formats \['markdown'\]"),
            ("out", "csv", r"unknown emit formats \['c', 's', 'v'\]"),
            ("out", [1], r"unknown emit formats \[1\]"),
            (5, ("csv",), "out_dir must be a path"),
            (b"out", ("csv",), "out_dir must be a path"),
            ("o\0x", ("csv",), "NUL byte"),
            (None, ("csv",), r"emit formats \['csv'\] need an output directory"),
            (None, ("vtk", "matrixmarket"), r"\['matrixmarket', 'vtk'\] need an output directory"),
        ],
        ids=["markdown-is-printed-not-written", "str", "not-a-str", "int-dir",
             "bytes-dir", "nul-dir", "csv-without-dir", "vtk-mtx-without-dir"],
    )
    def test_run_checks_its_output_before_any_mesh(
        self, monkeypatch, tmp_path, out_dir, emit, message
    ):
        meshes = counting(monkeypatch, harness, "build_mesh")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError, match=message):
            run_studies([quick_config(levels=[2])], out_dir, emit)
        assert meshes == []
        assert list(tmp_path.iterdir()) == []

    def test_outputs_of_one_name_in_one_directory_rejected_before_any_mesh(
        self, monkeypatch, tmp_path
    ):
        # the second study would overwrite the first one's square_uniform.csv
        meshes = counting(monkeypatch, harness, "build_mesh")
        out = tmp_path / "od"
        batch = [StudyConfig("square", "uniform", [2, 4], Params(L0=l0)) for l0 in (0.5, 2.0)]
        spaced = [replace(batch[0], label="a b"), replace(batch[1], label="a_b")]
        for same_name, slug in ((batch, "square_uniform"), (spaced, "a_b")):
            with pytest.raises(ConfigError, match=f"both write '{slug}' files"):
                run_studies(same_name, out, ("vtk",))
        assert meshes == []
        assert not out.exists()
        # with distinct labels, or with no files written, both run
        run_studies([batch[0], replace(batch[1], label="other")], out, ("csv",))
        run_studies(batch, out)
        assert sorted(p.name for p in out.iterdir()) == ["other.csv", "square_uniform.csv"]


class TestEmitTable:
    def test_markdown_shape(self):
        report = run_study(quick_config(levels=[2, 4]))
        text = emit_table(report)
        lines = text.strip().splitlines()
        assert len(lines) == 2 + 2  # header, rule, one row per level
        assert lines[2].startswith("| 1.4142 | ")
        assert "(" in lines[3] and ")" in lines[3]

    def test_determinism(self, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            study = run_study(quick_config(levels=[2, 4]))
            # the wall time is the one column that differs from run to run
            study.reports = [replace(rep, wall_ms=0.0) for rep in study.reports]
            write_report_csv(study, str(tmp_path / name))
            texts.append((tmp_path / name).read_bytes())
        assert texts[0] == texts[1]


class TestPresets:
    def test_expected_names_and_parameters(self):
        """Every field of every preset: the one literal copy of the reference
        studies' settings in the tests (the acceptance suite runs the presets)."""
        sq_uni = Params(nu=1.0, L0=0.1, c_u=0.1, N_u=100.0, N_p=100.0)
        sq_other = Params(nu=1.0, L0=2.0, c_u=1.0, N_u=100.0, N_p=100.0)
        lsh = Params(nu=1.0, L0=0.5, c_u=1.0, N_u=100.0, N_p=100.0)
        curved = Params(nu=1.0, L0=0.5, c_u=0.1, N_u=100.0, N_p=100.0)
        strong_sq = Params(nu=1.0, L0=2.0, c_u=1.0, N_u=100.0, N_p=100.0,
                           formulation="stabilised-strong")
        strong_lsh = Params(nu=1.0, L0=0.5, c_u=1.0, N_u=100.0, N_p=100.0,
                            formulation="stabilised-strong")
        square_levels, lshape_levels = (8, 16, 32, 64), (16, 32, 64, 128)
        expected = {
            "table1-uniform": [
                ("t1-uniform", "square", "uniform", square_levels, sq_uni, "both-zero")],
            "table1-crisscross": [
                ("t1-cc", "square", "crisscross", square_levels, sq_other, "both-zero")],
            "table1-ps": [
                ("t1-ps", "square", "powell-sabin", square_levels, sq_other, "both-zero")],
            "table2-ps-strong": [
                ("t2-strong", "square", "powell-sabin", square_levels, strong_sq, "both-zero")],
            "table3-crisscross": [
                (f"t3-n{n}", f"lshape:{n}", "crisscross", lshape_levels, lsh, "both-zero")
                for n in (1, 2, 4)],
            "table4-ps": [
                (f"t4-n{n}", f"lshape:{n}", "powell-sabin", lshape_levels, lsh, "both-zero")
                for n in (1, 2, 4)],
            "table5-corner": [
                (f"t5-{s}", "lshape:1", "crisscross", (128,), strong_lsh, s)
                for s in ("both-zero", "free", "bisector-normal")]
            + [("t5-nitsche", "lshape:1", "crisscross", (128,), lsh, "both-zero")],
            "table6-ps": [
                (f"t6-n{n}", f"curved-l:{n}", "powell-sabin", (2, 4, 8, 16, 32, 64), curved,
                 "both-zero")
                for n in (1, 2, 4)],
        }
        got = {name: [(c.label, c.case, c.family, c.levels, c.params, c.corner_strategy)
                      for c in configs]
               for name, configs in default_configs().items()}
        assert got == expected

    def test_row_counts_match_reference_tables(self):
        presets = default_configs()
        assert all(len(c.levels) == 4 for c in presets["table1-uniform"])
        assert all(len(c.levels) == 4 for c in presets["table3-crisscross"])
        assert all(len(c.levels) == 6 for c in presets["table6-ps"])
        assert all(c.params.N_u == 100.0 and c.params.N_p == 100.0
                   for group in presets.values() for c in group)


class TestCli:
    def test_presets_command(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "table1-uniform" in out

    def test_unknown_preset_is_config_error(self, capsys):
        assert main(["run", "--preset", "bogus"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: unknown preset")

    def test_mesh_command(self, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["mesh", "--family", "crisscross", "--level", "2", "--out", str(out)]) == 0
        assert out.exists()
        for name in ("m.vtk", "m.VTK"):  # the suffix in any case picks the VTK writer
            vtk = tmp_path / name
            assert main(["mesh", "--family", "uniform", "--level", "2", "--out", str(vtk)]) == 0
            assert vtk.read_text().startswith("# vtk DataFile")

    def test_mesh_command_unwritable_out(self, monkeypatch, tmp_path, capsys):
        meshes = counting(monkeypatch, harness, "build_mesh")
        for out in (str(tmp_path / "missing" / "m.txt"), ""):
            assert main(["mesh", "--family", "uniform", "--level", "2", "--out", out]) == 2
            assert capsys.readouterr().err.startswith("I/O error: [Errno 2] no such directory")
        assert len(meshes) == 0

    @pytest.mark.parametrize("suffix", ["/", ""], ids=["trailing-slash", "bare"])
    def test_mesh_command_out_is_a_directory(self, monkeypatch, tmp_path, capsys, suffix):
        meshes = counting(monkeypatch, harness, "build_mesh")
        out = f"{tmp_path}{suffix}"
        assert main(["mesh", "--family", "uniform", "--level", "2", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("I/O error: [Errno 21]")
        assert len(meshes) == 0

    def test_mesh_command_takes_a_domain_not_a_case(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        with pytest.raises(SystemExit) as exit_:
            main(["mesh", "--domain", "lshape:zz", "--family", "crisscross", "--level", "4",
                  "--out", str(out)])
        assert exit_.value.code == 2 and not out.exists()
        assert "invalid choice: 'lshape:zz'" in capsys.readouterr().err

    def test_mesh_command_bad_level(self, tmp_path, capsys):
        out = str(tmp_path / "m.txt")
        for level, domain in (("3", "lshape"), ("0", "square"), ("-2", "curved-l")):
            assert main(["mesh", "--family", "powell-sabin", "--level", level,
                         "--domain", domain, "--out", out]) == 2
            assert capsys.readouterr().err.startswith("configuration error")

    def test_numerical_value_error_is_not_a_config_error(self, monkeypatch, tmp_path, capsys):
        # exit 2 is for configurations; a ValueError from the numerics is a bug
        def broken(*args, **kwargs):
            raise ValueError("factorisation of shape (3, 3) for a (4, 4) system")

        monkeypatch.setattr(harness, "solve", broken)
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2]}))
        with pytest.raises(ValueError, match="for a"):
            main(["run", "--config", str(path)])
        assert "configuration error" not in capsys.readouterr().err

    def test_config_file_run(self, tmp_path, capsys):
        cfg = {
            "case": "square",
            "family": "uniform",
            "levels": [2, 4],
            "params": {"nu": 1.0, "L0": 0.5, "c_u": 0.5, "N_u": 100.0, "N_p": 100.0},
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 0
        assert "| h | err_u (rate) |" in capsys.readouterr().out

    def test_invalid_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform",
                                    "levels": [2], "workers": 3}))
        assert main(["run", "--config", str(path)]) == 2
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2
        capsys.readouterr()
        path.write_bytes('{"label": "caf\u00e9"}'.encode("latin-1"))  # not UTF-8
        assert main(["run", "--config", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"configuration error: cannot read config {path}: ")

    @pytest.mark.parametrize(
        "bad, message",
        [
            pytest.param(bad, message, id=json.dumps(bad))
            for bad, message in [
                ({"levels": [2.5]}, "level 2.5 of 'uniform'"),
                ({"levels": ["4"]}, "level '4' of 'uniform'"),
                ({"levels": 4}, "levels must be a list"),
                ({"levels": [True]}, "level True of 'uniform'"),
                ({"levels": [0]}, "level 0 of 'uniform'"),
                ({"params": {"nu": "1"}}, "nu must be a finite real number"),
                ({"params": {"N_p": True}}, "N_p must be a finite real number"),
                ({"params": {"L0": float("nan")}}, "L0 must be a finite real number"),
                ({"params": {"c_u": float("inf")}}, "c_u must be a finite real number"),
                ({"params": {"include_p_flux": False}},
                 "unknown params fields ['include_p_flux']"),
                ({"params": {"L0": 1e200}}, "L0^2/nu = (0.0, inf) must be finite"),
                ({"params": {"L0": 1e-200}}, "L0^2/nu = (inf, 0.0) must be finite"),
                ({"params": {"L0": 1e160, "formulation": "stabilised-strong"}},
                 "L0^2/nu = (1e-320, inf) must be finite"),
                ({"corner_strategy": "mystery"}, "unknown corner strategy 'mystery'"),
                ({"case": "lshape:1", "family": "crisscross", "levels": [8],
                  "params": {"formulation": "galerkin-nitsche"}, "corner_strategy": "free"},
                 "corner strategy 'free' needs formulation 'stabilised-strong', "
                 "not 'galerkin-nitsche'"),
                ({"params": {"corner_strategy": "mystery"}},
                 "unknown params fields ['corner_strategy']"),
                ({"params": {"formulation": "stabilised-strong", "N_u": 50}},
                 "formulation 'stabilised-strong' does not read ['N_u']"),
                ({"params": {"formulation": "stabilised-strong", "N_p": 7}},
                 "formulation 'stabilised-strong' does not read ['N_p']"),
                ({"params": {"formulation": "galerkin-nitsche", "c_u": 3}},
                 "formulation 'galerkin-nitsche' does not read ['c_u']"),
                ({"params": {"formulation": ["x"]}}, "unknown formulation ['x']"),
                ({"params": {"formulation": "stabilised-strong"}, "corner_strategy": "free"},
                 "corner strategy 'free' needs a re-entrant corner, and the square has none"),
                ({"params": {"nu": -1.0}}, "nu must be positive"),
                ({"params": [1.0]}, "params must be a JSON object"),
                ({"emit": "csv"}, "unknown config fields ['emit']"),
                ({"emit": [1]}, "unknown config fields ['emit']"),
                ({"case": 5}, "case must be a string"),
                ({"label": ["x"]}, "label must be a string"),
                ({"out_dir": 5}, "unknown config fields ['out_dir']"),
                ({"label": "run/1"}, "holds a path separator"),
                ({"label": "a\u0000b"}, "NUL byte"),
                ({"label": ":"}, "label ':' leaves an empty file name"),
                ({"params": {"strong": True}}, "unknown params fields ['strong']"),
                ({"out_dir": "o\u0000x", "emit": ["csv"]},
                 "unknown config fields ['emit', 'out_dir']"),
                ({"case": "lshape:1", "family": "crisscross", "levels": [2, 3]}, "level 3 of"),
                ({"case": "lshape:2", "family": "powell-sabin", "levels": [1, 2]}, "level 1 of"),
                ({"case": "curved-l:4", "family": "curved-mapped", "levels": [4, 5]},
                 "level 5 of"),
            ]
        ],
    )
    def test_malformed_config_is_config_error(self, monkeypatch, tmp_path, capsys, bad, message):
        meshes = counting(monkeypatch, harness, "build_mesh")
        out = tmp_path / "out"
        cfg = {"case": "square", "family": "uniform", "levels": [2]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**cfg, **bad}))
        assert main(["run", "--config", str(path), "--out", str(out), "--emit", "csv"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("configuration error: ") and message in line
        assert len(meshes) == 0
        assert not out.exists()

    def test_nul_in_out_is_config_error(self, monkeypatch, tmp_path, capsys):
        meshes = counting(monkeypatch, harness, "build_mesh")
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2]}))
        assert main(["run", "--config", str(path), "--out", "o\0x", "--emit", "csv"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: out_dir must be a path without a NUL byte\n"
        )
        assert meshes == []

    @pytest.mark.parametrize("params", [{"nu": 1e-300}, {"nu": 1e300}, {"L0": 1e150}],
                             ids=["nu=1e-300", "nu=1e+300", "L0=1e+150"])
    def test_extreme_scale_is_a_solver_failure(self, tmp_path, capsys, params):
        # finite, nonzero scales, but a matrix that SuperLU finds singular or
        # whose condition estimate overflows, which must not warn on the way
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2, 4],
                                    "params": params}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("solver failure: level 2") and len(err.splitlines()) == 1

    def test_solver_failure_exit_code(self, tmp_path):
        cfg = {
            "case": "square",
            "family": "crisscross",
            "levels": [4],
            "params": {"formulation": "galerkin-nitsche", "N_u": 100.0, "N_p": 0.0},
        }
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["run", "--config", str(path)])
        assert code == 3

    def test_residual_failure_exit_code(self, monkeypatch, tmp_path, capsys):
        def unconverged(*args, **kwargs):
            raise linsolve.ResidualError("relative residual 1.000e-06 above 1.0e-10")

        monkeypatch.setattr(harness, "solve", unconverged)
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2, 4]}))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "solver failure: level 2, square / uniform: relative residual 1.000e-06 above 1.0e-10\n"
        )

    def test_emit_csv_to_out_dir(self, tmp_path, capsys):
        cfg = {
            "case": "square",
            "family": "uniform",
            "levels": [2, 4],
            "label": "tiny",
        }
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cfg))
        code = main([
            "run", "--config", str(path), "--out", str(tmp_path), "--emit", "csv,markdown",
        ])
        assert code == 0
        assert (tmp_path / "tiny.csv").exists()

    def test_markdown_in_emit_controls_the_table(self, monkeypatch, tmp_path, capsys):
        pair = [
            StudyConfig("square", "uniform", [2], label="first"),
            StudyConfig("square", "crisscross", [2], label="second"),
        ]
        monkeypatch.setattr(harness, "default_configs", lambda: {"pair": pair})
        argv = ["run", "--preset", "pair", "--out", str(tmp_path), "--emit"]
        assert main(argv + ["csv"]) == 0
        out = capsys.readouterr().out
        assert "## " not in out and "| h |" not in out
        assert main(argv + ["csv,markdown"]) == 0
        titles = [line for line in capsys.readouterr().out.splitlines() if line.startswith("## ")]
        assert [t.split()[1] for t in titles] == ["first", "second"]

    def test_preset_batch_on_one_mesh(self, monkeypatch, tmp_path, capsys):
        pair = [
            StudyConfig("lshape:2", "crisscross", [4], LSHAPE, label="first"),
            StudyConfig("lshape:1", "crisscross", [2, 4], LSHAPE, label="second"),
        ]
        monkeypatch.setattr(harness, "default_configs", lambda: {"pair": pair})
        code = main([
            "run", "--preset", "pair", "--out", str(tmp_path), "--emit", "csv,markdown",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert 0 <= out.index("## first") < out.index("## second")
        for label, rows in (("first", 1), ("second", 2)):
            lines = (tmp_path / f"{label}.csv").read_text().splitlines()
            assert lines[0] == ",".join(_CSV_COLUMNS)
            assert len(lines) == 1 + rows

    def test_missing_out_dir_is_created(self, tmp_path):
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform",
                                    "levels": [2], "label": "tiny"}))
        out = tmp_path / "missing" / "nested"
        assert main(["run", "--config", str(path), "--out", str(out), "--emit", "csv"]) == 0
        assert (out / "tiny.csv").read_text().startswith(",".join(_CSV_COLUMNS))

    def test_out_dir_is_made_only_for_files(self, tmp_path, capsys):
        # markdown is printed, not written: a run that writes no file makes
        # no directory
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2, 4]}))
        out = tmp_path / "d"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert "| h | err_u (rate) |" in capsys.readouterr().out
        run_studies([quick_config()], out)
        assert not out.exists()

    def test_emit_files_without_out_is_config_error(self, monkeypatch, tmp_path, capsys):
        meshes = counting(monkeypatch, harness, "build_mesh")
        pair = [StudyConfig("square", "uniform", [2], label="first")]
        monkeypatch.setattr(harness, "default_configs", lambda: {"pair": pair})
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2]}))
        for argv in (
            ["run", "--preset", "pair", "--emit", "csv"],
            ["run", "--preset", "pair", "--emit", "markdown,vtk"],
            ["run", "--config", str(path), "--emit", "csv"],
            ["run", "--config", str(path), "--emit", "matrixmarket"],
        ):
            assert main(argv) == 2
            assert "output directory" in capsys.readouterr().err
        assert meshes == []
        # --out is the one way to give the files a directory
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out), "--emit", "csv"]) == 0
        assert len(meshes) == 1 and len(list(out.glob("*.csv"))) == 1

    def test_uncreatable_out_dir_fails_before_any_mesh(self, monkeypatch, tmp_path, capsys):
        meshes = counting(monkeypatch, harness, "build_mesh")
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2]}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--config", str(path), "--out", str(blocker / "sub"), "--emit", "csv"])
        assert (code, len(meshes)) == (2, 0)
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_strong_level_without_unknowns_exit_code(self, tmp_path, capsys):
        # square uniform 1: four convex corners, every dof prescribed
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [1],
                                    "params": {"formulation": "stabilised-strong"}}))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "mesh failure: level 1, square / uniform: "
            "the strong boundary conditions leave no unknown\n"
        )

    def test_mesh_failure_exit_code(self, monkeypatch):
        def folded(*args):
            raise MeshError("triangle with non-positive signed area")

        monkeypatch.setattr(harness, "build_mesh", folded)
        assert main(["run", "--preset", "table6-ps"]) == 3

    @pytest.mark.parametrize(
        "broken, message",
        [
            (lambda ev: ev[1:], "boundary is not a union of closed loops"),
            (
                lambda ev: np.vstack([ev, [[ev[0, 0], ev[1, 1]]]]),
                "boundary vertex with other than two incident segments",
            ),
        ],
        ids=["edge-dropped", "two-outgoing"],
    )
    def test_broken_boundary_exit_code(self, monkeypatch, tmp_path, capsys, broken, message):
        def broken_mesh(*args):
            mesh = build_mesh("square", "uniform", 2)
            return replace(mesh, edge_vertices=broken(mesh.edge_vertices))

        monkeypatch.setattr(harness, "build_mesh", broken_mesh)
        path = tmp_path / "strong.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2],
                                    "params": {"formulation": "stabilised-strong"}}))
        assert main(["run", "--config", str(path)]) == 3
        assert capsys.readouterr().err == f"mesh failure: level 2, square / uniform: {message}\n"
