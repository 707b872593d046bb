import json
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from maxnit import harness, linsolve
from maxnit.analysis import boundary_data_norm, l2_errors, triple_norm
from maxnit.assembly import CORNER_STRATEGIES, Params, assemble_global
from maxnit.harness import (
    ConfigError,
    StudyConfig,
    build_case,
    build_mesh,
    default_configs,
    emit_table,
    main,
    run_studies,
    run_study,
)
from maxnit.io import _CSV_COLUMNS, write_report_csv
from maxnit.mesh import MeshError


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

    def test_unknown_case_or_emit(self):
        with pytest.raises(ConfigError):
            quick_config(case="cube")
        with pytest.raises(ConfigError):
            quick_config(case="lshape:3")
        with pytest.raises(ConfigError):
            quick_config(emit=("pdf",))

    def test_frozen_after_construction(self):
        cfg = quick_config()
        with pytest.raises(FrozenInstanceError):
            cfg.levels = [0]
        with pytest.raises(ConfigError):
            replace(cfg, levels=[0])  # replace re-runs the checks
        assert cfg.levels == [2, 4]


class TestBuildMesh:
    def test_families(self):
        assert build_mesh("square", "uniform", 2).n_triangles == 8
        assert build_mesh("square", "crisscross", 2).n_triangles == 16
        assert build_mesh("square", "powell-sabin", 2).n_triangles == 48
        assert build_mesh("lshape:1", "crisscross", 4).domain == "lshape"
        assert build_mesh("curved-l:1", "curved-mapped", 4).domain == "curved-l"
        assert build_mesh("curved-l:1", "powell-sabin", 4).domain == "curved-l"

    def test_incompatible_pair_rejected(self):
        with pytest.raises(ConfigError):
            build_mesh("lshape:1", "uniform", 4)


class TestRunStudy:
    def test_single_level_has_no_rates(self):
        report = run_study(quick_config(levels=[4]))
        assert len(report.reports) == 1
        assert report.rates_u == [None]
        assert report.final_rate_u is None

    def test_smooth_square_final_rates(self):
        config = quick_config(
            levels=[8, 16, 32],
            params=Params(nu=1.0, L0=0.1, c_u=0.1, N_u=100.0, N_p=100.0),
        )
        report = run_study(config)
        assert report.final_rate_u == pytest.approx(2.0, abs=0.1)
        assert report.final_rate_curl == pytest.approx(1.0, abs=0.1)
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


def lshape_batch():
    return [
        StudyConfig(f"lshape:{n}", "crisscross", [4, 8], LSHAPE, label=f"n{n}")
        for n in (1, 2, 4)
    ]


class TestRunStudies:
    def test_levels_edited_in_place_rejected_before_any_mesh(self, monkeypatch):
        meshes = counting(monkeypatch, harness, "build_mesh")
        cfg = StudyConfig("lshape:1", "crisscross", [2])
        cfg.levels.append(3)  # frozen, but the list itself can change
        with pytest.raises(ConfigError, match="must be even"):
            run_study(cfg)
        assert meshes == []

    def test_matches_direct_composition(self):
        studies = run_studies(lshape_batch())
        for study in studies:
            cfg = study.config
            case = build_case(cfg.case, cfg.params.nu)
            for level, rep in zip(cfg.levels, study.reports):
                mesh = build_mesh(cfg.case, cfg.family, level)
                sol = linsolve.solve(assemble_global(mesh, cfg.params, case))
                direct = l2_errors(mesh, sol, case)
                direct.triple = triple_norm(mesh, sol, cfg.params)
                direct.data_norm = boundary_data_norm(mesh, case, cfg.params)
                assert rep.wall_ms >= 0.0
                assert replace(rep, wall_ms=0.0) == replace(direct, wall_ms=0.0)
        assert [s.config.label for s in studies] == ["n1", "n2", "n4"]

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
        # table5-corner at level 8: three strong corner strategies and Nitsche
        strong = replace(LSHAPE, formulation="stabilised-strong")
        batch = [
            StudyConfig("lshape:1", "crisscross", [8], replace(strong, corner_strategy=s), label=s)
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
        assert (len(assembled), len(splu), len(strong_bc)) == (2, 4, 3)
        assert {id(args[0].matrix) for args in strong_bc} == {id(assembled[0][0])}
        for m, before in assembled:
            assert [a.tobytes() for a in (m.data, m.indices, m.indptr)] == before
        for study, ref in zip(studies, alone):
            assert replace(study.reports[0], wall_ms=0.0) == replace(ref, wall_ms=0.0)

    def test_missing_out_dir_is_created(self, tmp_path):
        out = tmp_path / "missing" / "nested"
        run_studies([quick_config(levels=[2], label="tiny", out_dir=str(out), emit=("csv",))])
        assert (out / "tiny.csv").read_text().startswith(",".join(_CSV_COLUMNS))


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
        presets = default_configs()
        expected = {
            "table1-uniform",
            "table1-crisscross",
            "table1-ps",
            "table2-ps-strong",
            "table3-crisscross",
            "table4-ps",
            "table5-corner",
            "table6-ps",
        }
        assert set(presets) == expected

        t1 = presets["table1-uniform"][0]
        assert (t1.params.L0, t1.params.c_u) == (0.1, 0.1)
        assert t1.levels == [8, 16, 32, 64]

        t4 = presets["table4-ps"][0]
        assert (t4.params.L0, t4.params.c_u) == (0.5, 1.0)
        assert t4.family == "powell-sabin"

        t5 = presets["table5-corner"]
        strategies = [c.params.corner_strategy for c in t5 if c.params.formulation == "stabilised-strong"]
        assert strategies == ["both-zero", "free", "bisector-normal"]
        assert sum(c.params.formulation == "stabilised-nitsche" for c in t5) == 1
        assert all(c.levels == [128] for c in t5)

        t6 = presets["table6-ps"]
        assert all(len(c.levels) == 6 for c in t6)
        assert all(c.params.c_u == 0.1 and c.params.L0 == 0.5 for c in t6)

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

    def test_unknown_preset_is_config_error(self):
        assert main(["run", "--preset", "bogus"]) == 2

    def test_mesh_command(self, tmp_path):
        out = tmp_path / "m.txt"
        assert main(["mesh", "--family", "crisscross", "--level", "2", "--out", str(out)]) == 0
        assert out.exists()
        vtk = tmp_path / "m.vtk"
        assert main(["mesh", "--family", "uniform", "--level", "2", "--out", str(vtk)]) == 0
        assert vtk.read_text().startswith("# vtk DataFile")

    def test_mesh_command_unwritable_out(self, monkeypatch, tmp_path, capsys):
        meshes = counting(monkeypatch, harness, "build_mesh")
        out = tmp_path / "missing" / "m.txt"
        assert main(["mesh", "--family", "uniform", "--level", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("I/O error")
        assert len(meshes) == 0

    def test_mesh_command_bad_level(self):
        assert main(["mesh", "--family", "crisscross", "--level", "3",
                     "--domain", "lshape", "--out", "/tmp/_unused.txt"]) == 2

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

    def test_invalid_config_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform",
                                    "levels": [2], "workers": 3}))
        assert main(["run", "--config", str(path)]) == 2
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            {"levels": [2.5]},
            {"levels": ["4"]},
            {"levels": 4},
            {"levels": [True]},
            {"levels": [0]},
            {"params": {"nu": "1"}},
            {"params": {"N_p": True}},
            {"params": {"L0": float("nan")}},
            {"params": {"c_u": float("inf")}},
            {"params": {"include_p_flux": "no"}},
            {"params": [1.0]},
            {"emit": "csv"},
            {"emit": [1]},
            {"case": 5},
            {"label": ["x"]},
            {"out_dir": 5},
            {"case": "lshape:1", "family": "crisscross", "levels": [2, 3]},
            {"case": "lshape:2", "family": "powell-sabin", "levels": [1, 2]},
            {"case": "curved-l:4", "family": "curved-mapped", "levels": [4, 5]},
        ],
        ids=lambda bad: json.dumps(bad),
    )
    def test_malformed_config_is_config_error(self, monkeypatch, tmp_path, capsys, bad):
        meshes = counting(monkeypatch, harness, "build_mesh")
        out = tmp_path / "out"
        cfg = {"case": "square", "family": "uniform", "levels": [2], "out_dir": str(out)}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**cfg, **bad}))
        assert main(["run", "--config", str(path)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert len(meshes) == 0
        assert not out.exists()

    def test_preset_edited_in_place_is_config_error(self, monkeypatch, capsys):
        meshes = counting(monkeypatch, harness, "build_mesh")
        cfg = StudyConfig("lshape:1", "crisscross", [2])
        cfg.levels.append(3)
        monkeypatch.setattr(harness, "default_configs", lambda: {"edited": [cfg]})
        assert main(["run", "--preset", "edited"]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert meshes == []

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

    def test_uncreatable_out_dir_fails_before_any_mesh(self, monkeypatch, tmp_path, capsys):
        meshes = counting(monkeypatch, harness, "build_mesh")
        path = tmp_path / "study.json"
        path.write_text(json.dumps({"case": "square", "family": "uniform", "levels": [2]}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["run", "--config", str(path), "--out", str(blocker / "sub"), "--emit", "csv"])
        assert (code, len(meshes)) == (2, 0)
        assert len(capsys.readouterr().err.splitlines()) == 1

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
