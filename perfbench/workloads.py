"""The benchmark's three workloads.

A workload is set up once per process (setup), then runs whole passes:
ops() lists the operations of one pass in order, each a callable that
takes the results of the pass so far.  fingerprint() must agree between
passes, check() verifies the first pass against the oracles, and
cli_commands() lists the workload's `korncert` CLI processes with a
check of each one's output.  The checks import the oracles, and with them
sympy, only when called, so the worker reads its peak memory first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

import korncert
import korncert.cli

OUT_DIR = Path(".bench_out")
SIGMA_REL = 1e-10
TOL_DENSE = 1e-8
SPAN_TOL = 1e-8
# 1000 interior points already make numeric_nullspace build a 3000 x 3000
# U it never uses; 2000 points run the SVD for about 0.4 s on both CPUs,
# long enough to catch the other CPU's speed changing mid-way.
INTERIOR_POINTS = 1000


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "korncert.cli", *args]


def _domain_spec(dom: korncert.StarDomain) -> dict:
    return {"n": dom.n, "family": dom.family, "c": dom.c, "a": dom.a, "m1": dom.m1, "m2": dom.m2}


def _domain_from_config(obj: dict) -> dict:
    radial = obj["radial"]
    return {
        "n": obj["n"],
        "family": radial["family"],
        "c": float(radial.get("c", 1)),
        "a": float(radial.get("a", 0)),
        "m1": radial.get("m", radial.get("m1", 0)),
        "m2": radial.get("m2", 0),
    }


def check_certificates(certs, case: dict, span_fields) -> list[str]:
    """Certificates (rows of float coefficients) against an analytic span:
    unit norm, span within SPAN_TOL, and a trace below TOL_DENSE at
    every dense sample (boundary) or input point, evaluated by the oracle."""
    from oracles import boundary_frame, eval_fields, from_sympy, grid_angles, span_distance
    from oracles import graded_exponents, symbols, trace_rows

    label, n, dim_v = case["label"], case["n"], case["dim_v"]
    exps = graded_exponents(n, case["K"])
    certs = np.asarray(certs, dtype=float).reshape(len(certs), -1)
    errors = []
    if len(certs) != len(span_fields):
        return [f"{label}: {len(certs)} certificates, analytic span has dim {len(span_fields)}"]
    norms = np.linalg.norm(certs, axis=1)
    if np.abs(norms - 1.0).max() > 1e-12:
        errors.append(f"{label}: certificate coefficient norms {norms.tolist()}")
    xs = symbols(n)
    span = np.array([from_sympy(f, exps, xs) for f in span_fields])
    dist = span_distance(certs, span)
    if not dist <= SPAN_TOL:
        errors.append(f"{label}: certificate span is {dist:.2e} from the analytic span")
    if "points" in case:
        points, normals, trace = np.asarray(case["points"], dtype=float), None, "full"
    else:
        angles = grid_angles(n, case["dense"], case.get("ranges"))
        points, normals = boundary_frame(case["domain"], angles)
        trace = case["trace"]
    worst = np.abs(trace_rows(eval_fields(certs, exps, dim_v, points), normals, trace)).max()
    if not worst < TOL_DENSE:
        errors.append(f"{label}: oracle trace residual {worst:.2e} >= {TOL_DENSE:.0e}")
    return errors


def check_norm(basis_coeffs, case: dict) -> list[str]:
    """A1 reproduced: the oracle's own constraint matrix on the coarse grid
    (or the input points) has no numeric nullspace."""
    from oracles import boundary_frame, eval_fields, graded_exponents, grid_angles
    from oracles import nullity, trace_rows, unit_columns

    exps = graded_exponents(case["n"], case["K"])
    cols = unit_columns(basis_coeffs)
    if "points" in case:
        values = eval_fields(cols, exps, case["dim_v"], np.asarray(case["points"], dtype=float))
        rows = trace_rows(values, None, "full")
    else:
        angles = grid_angles(case["n"], case["coarse"], case.get("ranges"))
        points, normals = boundary_frame(case["domain"], angles)
        rows = trace_rows(eval_fields(cols, exps, case["dim_v"], points), normals, case["trace"])
    null = nullity(rows, SIGMA_REL)
    return [] if null == 0 else [f"{case['label']}: oracle constraint matrix has nullity {null}"]


def _verdict_coeffs(verdict) -> list[list[float]]:
    return [[float(q) for q in p.coeffs] for p in verdict.certificates]


def _hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


class VerdictTable:
    """Every shipped config through run_config, plot data for the A2
    boundary configs, and every config through the CLI."""

    def setup(self, seed: int) -> None:
        self.configs = {}
        for path in sorted(Path("configs").glob("*.json")):
            with open(path, encoding="utf-8") as fh:
                self.configs[path.stem] = (path, json.load(fh))
        if not self.configs:
            raise FileNotFoundError("no configs/*.json in the working directory")

    def _plot(self, stem: str, results: dict) -> dict:
        cfg = self.configs[stem][1]
        test = cfg["test"]
        report = results[f"run:{stem}"][0]
        dom = korncert.StarDomain.from_json(test["domain"])
        rng = test["coarse"].get("range")
        coarse = korncert.sample_grid(dom, test["coarse"]["counts"], rng)
        dense_counts = test.get("dense", {}).get("counts") or [8 * c for c in coarse.counts]
        dense = korncert.sample_grid(dom, dense_counts, rng)
        basis = korncert.monomial_basis(dom.n, cfg["K"])
        dim_v = report["operator"]["dimV"]
        certs = tuple(
            korncert.PolyVec.from_floats(basis, dim_v, c["coeffs"])
            for c in report["verdict"]["certificates"]
        )
        verdict = korncert.Verdict(tag=report["verdict"]["verdict"], certificates=certs)
        outdir = OUT_DIR / "plots" / stem
        return korncert.cli.emit_plot_data(
            dom, coarse, dense, korncert.TraceKind.of(test["trace"]), verdict, outdir
        )

    def ops(self):
        out = []
        for stem, (_, cfg) in self.configs.items():
            out.append((f"run:{stem}", lambda r, cfg=cfg: korncert.cli.run_config(cfg)))
        for stem, (_, cfg) in self.configs.items():
            if cfg["test"]["kind"] == "boundary" and cfg.get("expected") == "A2":
                out.append((f"plot:{stem}", lambda r, stem=stem: self._plot(stem, r)))
        return out

    def fingerprint(self, results) -> str:
        return _hash([results[f"run:{s}"][0]["digest"] if f"run:{s}" in results else None for s in self.configs])

    def cli_commands(self):
        for stem, (path, _) in self.configs.items():
            yield f"check:{stem}", _cli("check", "--config", str(path)), self._cli_check(stem)

    def _cli_check(self, stem):
        def check(stdout: str, results) -> list[str]:
            if f"run:{stem}" not in results:
                return []
            digest = results[f"run:{stem}"][0]["digest"]
            if f"digest      : {digest}" not in stdout.splitlines():
                return [f"cli {stem}: digest differs from run_config's {digest[:12]}"]
            return []

        return check

    def _case(self, stem: str, cfg: dict, report: dict) -> dict:
        op = cfg["operator"]
        test = cfg["test"]
        case = {"label": stem, "n": op["n"], "K": cfg["K"], "dim_v": report["operator"]["dimV"]}
        if test["kind"] == "points":
            case["points"] = report["test"]["points"]
            return case
        case.update(domain=_domain_from_config(test["domain"]), trace=test["trace"])
        case["ranges"] = test["coarse"].get("range")
        case["coarse"] = test["coarse"]["counts"]
        case["dense"] = test.get("dense", {}).get("counts") or [8 * c for c in case["coarse"]]
        return case

    def _span(self, cfg: dict):
        from oracles import boundary_span, line_span

        op, test = cfg["operator"], cfg["test"]
        if test["kind"] == "boundary":
            return boundary_span(op["builtin"], op["n"], cfg["K"], _domain_from_config(test["domain"]), test["trace"])
        (line,) = test["lines"]
        return line_span(op["builtin"], op["n"], cfg["K"], line["p0"], line["dir"])

    def check(self, results) -> list[str]:
        from oracles import boundary_frame, grid_angles

        errors = []
        for stem, (_, cfg) in self.configs.items():
            if f"run:{stem}" not in results:
                continue
            report, code = results[f"run:{stem}"]
            tag = report["verdict"]["verdict"]
            if code != 0 or tag != cfg["expected"]:
                errors.append(f"{stem}: verdict {tag} (exit {code}), expected {cfg['expected']}")
                continue
            span = self._span(cfg)
            if tag != ("A2" if span else "A1"):
                errors.append(f"{stem}: verdict {tag} disagrees with the analytic span (dim {len(span)})")
            elif span:
                certs = [c["coeffs"] for c in report["verdict"]["certificates"]]
                errors += check_certificates(certs, self._case(stem, cfg, report), span)
        for label, info in results.items():
            if not label.startswith("plot:"):
                continue
            stem = label[5:]
            cfg = self.configs[stem][1]
            case = self._case(stem, cfg, results[f"run:{stem}"][0])
            n = case["n"]
            with open(info["boundary"], newline="", encoding="utf-8") as fh:
                rows = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
            points, normals = boundary_frame(case["domain"], grid_angles(n, case["coarse"], case["ranges"]))
            expect = np.hstack([grid_angles(n, case["coarse"], case["ranges"]), points, normals])
            if rows.shape != expect.shape or np.abs(rows - expect).max() > 1e-12:
                errors.append(f"{stem}: boundary.csv differs from the analytic points and normals")
            with open(info["residual"], newline="", encoding="utf-8") as fh:
                res = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
            if len(res) != math.prod(case["dense"]) or not res[:, n - 1 :].max() < TOL_DENSE:
                errors.append(f"{stem}: residual.csv is not below {TOL_DENSE:.0e} on the dense grid")
        return errors


# (name, n, order, degrees passed to kernel_basis, profile K_max,
#  analytic (elliptic, C-elliptic)).
SWEEP = [
    ("sym_grad", 3, None, (2, 3, 4), 3, (True, True)),
    ("dev_sym_grad", 3, None, (2, 3, 4), 3, (True, True)),
    ("dev_sym_grad", 2, None, (2, 4, 6, 8), 6, (True, False)),
    ("div", 3, None, (1, 3, 5), 4, (False, False)),
    ("grad_k", 2, 3, (3, 5, 7), 5, (True, True)),
]


class KernelSweep:
    """Probe, kernels at several degrees, and a dimension profile for
    five operators; exact assembly and elimination only."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.ops_ = {}
        for spec in SWEEP:
            name, n, order = spec[:3]
            key = f"{name}{n}" + (f"o{order}" if order else "")
            self.ops_[key] = (korncert.builtin_operator(name, n, order=order), spec)

    def ops(self):
        out = []
        for key, (op, (_, _, _, degrees, k_prof, _)) in self.ops_.items():
            out.append((f"probe:{key}", lambda r, op=op: korncert.ellipticity_probe(op, trials=8, seed=self.seed)))
            for K in degrees:
                out.append((f"kernel:{key}:{K}", lambda r, op=op, K=K: korncert.kernel_basis(op, K)))
            out.append((f"profile:{key}", lambda r, op=op, k=k_prof: korncert.kernel_dim_profile(op, k)))
        return out

    def fingerprint(self, results) -> str:
        out = []
        for label, res in sorted(results.items()):
            if label.startswith("kernel:"):
                out.append([str(q) for p in res.basis for q in p.coeffs])
            elif label.startswith("probe:"):
                out.append(res.to_json())
            else:
                out.append(list(res.dims))
        return _hash(out)

    def cli_commands(self):
        for key, (_, (name, n, order, *_)) in self.ops_.items():
            extra = ["--order", str(order)] if order else []
            argv = _cli("kernel", "--op", name, "--n", str(n), *extra, "--K", "3", "--profile", "3")
            yield f"kernel:{key}", argv, self._cli_check(key, name, n, order)

    @staticmethod
    def _cli_check(key, name, n, order):
        def check(stdout: str, results) -> list[str]:
            from oracles import kernel_dim

            dims = [kernel_dim(name, n, order, K) for K in range(4)]
            want = [f"dim {dims[3]} ", f"dim profile K=0..3: {dims} "]
            if not all(w in stdout for w in want):
                return [f"cli kernel {key}: output lacks {want}"]
            return []

        return check

    def check(self, results) -> list[str]:
        from oracles import ambient_dim, annihilated, graded_exponents, independent, kernel_dim
        from oracles import witness_holds

        errors = []
        for key, (op, (name, n, order, degrees, k_prof, flags)) in self.ops_.items():
            terms = [(alpha.entries, matrix) for alpha, matrix in op.terms]
            for K in degrees:
                kb = results.get(f"kernel:{key}:{K}")
                if kb is None:
                    continue
                want, m = kernel_dim(name, n, order, K), ambient_dim(name, n, order, K)
                if (kb.dim, kb.m, kb.dim + kb.rank) != (want, m, m):
                    errors.append(f"{key} K={K}: dim {kb.dim}, m {kb.m}, rank {kb.rank}; want dim {want}, m {m}")
                exps = graded_exponents(n, K)
                if kb.basis and [mi.entries for mi in kb.basis[0].basis.exponents] != exps:
                    errors.append(f"{key} K={K}: monomial order is not graded-lex")
                    continue
                if not independent([p.coeffs for p in kb.basis]):
                    errors.append(f"{key} K={K}: basis is linearly dependent")
                for i, p in enumerate(kb.basis):
                    if not annihilated(name, n, order, terms, p.coeffs, exps, op.dimV):
                        errors.append(f"{key} K={K}: basis element {i} is not annihilated")
            if f"profile:{key}" in results:
                dims = list(results[f"profile:{key}"].dims)
                if dims != [kernel_dim(name, n, order, K) for K in range(k_prof + 1)]:
                    errors.append(f"{key}: profile {dims} disagrees with the closed form")
                for K in degrees:
                    kb = results.get(f"kernel:{key}:{K}")
                    if K <= k_prof and kb is not None and dims[K] != kb.dim:
                        errors.append(f"{key}: profile entry K={K} differs from kernel_basis")
            probe = results.get(f"probe:{key}")
            if probe is None:
                continue
            if (probe.elliptic, probe.c_elliptic) != flags:
                errors.append(f"{key}: probe says {(probe.elliptic, probe.c_elliptic)}, analytic {flags}")
            w = probe.witness
            if (w is None) != flags[1]:
                errors.append(f"{key}: witness {'missing' if w is None else 'unexpected'}")
            if w is not None and not witness_holds(
                terms, [(z.re, z.im) for z in w.xi], [(z.re, z.im) for z in w.v]
            ):
                errors.append(f"{key}: witness does not satisfy A[xi] v = 0")
        return errors


class DenseCertify:
    """classify and point_measure_test over a sweep of grid sizes on
    kernels built during set-up."""

    def setup(self, seed: int) -> None:
        k = korncert
        self.kernels = {
            "sym3": k.kernel_basis(k.builtin_operator("sym_grad", 3), 2),
            "dev3": k.kernel_basis(k.builtin_operator("dev_sym_grad", 3), 2),
            "sym2": k.kernel_basis(k.builtin_operator("sym_grad", 2), 1),
        }
        ball3 = k.StarDomain.ball(3)
        self.domains = {
            "ball3": ball3,
            "wavy3": k.StarDomain.sine3d(2, 1, 2, 3),
            "disk": k.StarDomain.ball(2),
            "wavy2": k.StarDomain.sine2d(2, 1, 2),
        }
        # (kernel, domain, trace, coarse count per angle, dense count)
        self.boundary = [
            ("sym3", "ball3", "normal", 4, 16),
            ("sym3", "ball3", "normal", 8, 32),
            ("dev3", "ball3", "normal", 4, 16),
            ("dev3", "ball3", "normal", 6, 24),
            ("dev3", "wavy3", "normal", 12, 24),
            ("dev3", "wavy3", "normal", 24, 48),
            ("dev3", "wavy3", "normal", 48, 96),
        ] + [("sym2", d, t, 12, 96) for d in ("disk", "wavy2") for t in ("normal", "tangential", "full")]
        self.lines = {count: k.line_points([0, 0, 0], [1, 0, 0], count, 1.0) for count in (9, 65, 257)}
        self.interior = k.interior_points(ball3, INTERIOR_POINTS, seed=seed)

    def _classify(self, kern, dom_key, trace, c, d):
        dom = self.domains[dom_key]
        counts = (lambda m: [m]) if dom.n == 2 else (lambda m: [m, m])
        coarse = korncert.sample_grid(dom, counts(c))
        dense = korncert.sample_grid(dom, counts(d))
        return korncert.classify(self.kernels[kern], dom, trace, coarse, dense, SIGMA_REL, TOL_DENSE)

    def ops(self):
        out = [
            (f"classify:{kern}:{dom}:{trace}:{c}:{d}", lambda r, a=(kern, dom, trace, c, d): self._classify(*a))
            for kern, dom, trace, c, d in self.boundary
        ]
        for count, pts in self.lines.items():
            out.append((f"line:{count}", lambda r, pts=pts: korncert.point_measure_test(self.kernels["sym3"], pts)))
        out.append((f"interior:{INTERIOR_POINTS}", lambda r: korncert.point_measure_test(self.kernels["sym3"], self.interior)))
        return out

    def fingerprint(self, results) -> str:
        return _hash({label: [v.tag, _verdict_coeffs(v)] for label, v in results.items()})

    def cli_commands(self):
        for stem in ("disk_symgrad_normal", "wavy2d_symgrad_normal", "ball3d_symgrad_normal", "wavy3d_devsymgrad_normal"):
            yield f"check:{stem}", _cli("check", "--config", f"configs/{stem}.json"), self._cli_check(stem)
        yield "points:axis_line_points", _cli("points", "--config", "configs/axis_line_points.json"), self._cli_check("axis_line_points")

    @staticmethod
    def _cli_check(stem):
        def check(stdout: str, results) -> list[str]:
            with open(f"configs/{stem}.json", encoding="utf-8") as fh:
                expected = json.load(fh)["expected"]
            if f"verdict     : {expected} " not in stdout:
                return [f"cli {stem}: verdict line lacks {expected}"]
            return []

        return check

    def check(self, results) -> list[str]:
        from oracles import boundary_span, kernel_dim, line_span

        errors = []
        kern_spec = {"sym3": ("sym_grad", 3, 2), "dev3": ("dev_sym_grad", 3, 2), "sym2": ("sym_grad", 2, 1)}
        for key, (name, n, K) in kern_spec.items():
            if self.kernels[key].dim != kernel_dim(name, n, None, K):
                errors.append(f"set-up kernel {key} has dim {self.kernels[key].dim}")
        for kern, dom_key, trace, c, d in self.boundary:
            label = f"classify:{kern}:{dom_key}:{trace}:{c}:{d}"
            name, n, K = kern_spec[kern]
            dom = self.domains[dom_key]
            case = {
                "label": label, "n": n, "K": K, "dim_v": n, "domain": _domain_spec(dom), "trace": trace,
                "coarse": [c] * (n - 1), "dense": [d] * (n - 1),
            }
            errors += self._check_verdict(results.get(label), case, boundary_span(name, n, K, case["domain"], trace), kern)
        for count, pts in self.lines.items():
            case = {"label": f"line:{count}", "n": 3, "K": 2, "dim_v": 3, "points": pts}
            errors += self._check_verdict(results.get(f"line:{count}"), case, line_span("sym_grad", 3, 2, [0, 0, 0], [1, 0, 0]), "sym3")
        if not max(float(np.linalg.norm(p)) for p in self.interior) < 1.0:
            errors.append("interior points leave the unit ball")
        label = f"interior:{INTERIOR_POINTS}"
        case = {"label": label, "n": 3, "K": 2, "dim_v": 3, "points": self.interior}
        errors += self._check_verdict(results.get(label), case, [], "sym3")
        return errors

    def _check_verdict(self, verdict, case, span, kern) -> list[str]:
        if verdict is None:  # the operation failed and was counted
            return []
        want = "A2" if span else "A1"
        if verdict.tag != want:
            return [f"{case['label']}: verdict {verdict.tag}, analytic {want}"]
        if span:
            return check_certificates(_verdict_coeffs(verdict), case, span)
        return check_norm([p.coeffs for p in self.kernels[kern].basis], case)


WORKLOADS = {"verdict-table": VerdictTable, "kernel-sweep": KernelSweep, "dense-certify": DenseCertify}
