"""Config-driven command line front end for the census engine.

A run takes one JSON config document naming the surface (weights and
Gram entries as monomial lists) and the height model (alpha as an exact
fraction string), plus one section per subcommand.  Every subcommand
writes a JSON report and a flat CSV summary into the output directory;
exact quantities are serialized as integer or fraction strings, floats
at 12 significant digits, and reports embed the config hash and engine
version.  Identical config and subcommand give byte-identical files.

Exit codes: 0 success, 2 invalid input, 3 a computational budget ran
out, 4 internal engine failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bundle import ConicBundleSurface, discriminant, import_cubic_with_line, validate
from .census import asymptotic_probe, bt_probe, count_total, northcott_probe, peyre_sum, surface_digest
from .conics import STRATEGIES, _count_fibre, _smooth_fibre
from .errors import BudgetExceeded, EngineError, InvalidInputError
from .heights import HeightModel
from .localdata import _fibre_report, fibre_report, sigma_p
from .models import two_squares_bundle
from .polynomials import MultiPoly

__all__ = ["RunConfig", "emit_config", "main", "parse_config", "run"]

SUBCOMMANDS = (
    "validate",
    "count",
    "fibre",
    "density",
    "peyre-sum",
    "probe",
    "bt-probe",
    "northcott-probe",
    "import-cubic",
)

# per-section parameter tables: name -> (required, default, checker)
_SECTION_KEYS = {
    "count": {
        "bound": (True, None, "posint"),
        "strategy": (False, "auto", "strategy"),
    },
    "fibre": {
        "y": (True, None, "intlist"),
        "bound": (True, None, "posint"),
        "strategy": (False, "auto", "strategy"),
    },
    "density": {
        "y": (True, None, "intlist"),
        "p": (False, None, "posint"),
    },
    "peyre-sum": {
        "max_height": (True, None, "posint"),
    },
    "probe": {
        "bounds": (False, None, "intlist"),
        "strategy": (False, "auto", "strategy"),
    },
    "bt-probe": {
        "t_max": (True, None, "posint"),
        "growth_terms": (False, 6, "posint"),
    },
    "northcott-probe": {
        "a": (True, None, "posint"),
        "count": (False, 20, "posint"),
    },
    "import-cubic": {
        "nvars": (True, None, "posint"),
        "cubic": (True, None, "monomials"),
        "p": (True, None, "intlist"),
        "q": (True, None, "intlist"),
    },
    "output": {
        "dir": (False, ".", "string"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """A parsed and validated run document.

    document holds the normalized structure (what emit_config writes),
    digest its sha256; surface and model are the built objects, absent
    for documents that only carry an import-cubic section.
    """

    document: dict
    digest: str
    surface: ConicBundleSurface | None
    model: HeightModel | None

    def section(self, name: str) -> dict:
        """Section parameters with defaults filled in."""
        table = _SECTION_KEYS[name]
        raw = self.document.get(name, {})
        out = {}
        for key, (required, default, _) in table.items():
            if key in raw:
                out[key] = raw[key]
            elif required:
                raise InvalidInputError(f"section {name!r} is missing required key {key!r}")
            else:
                out[key] = default
        return out


# ---------------------------------------------------------------------------
# config parsing


def _check_value(section: str, key: str, kind: str, value):
    def fail(expected):
        raise InvalidInputError(f"config key {section}.{key}: expected {expected}")

    if kind == "posint":
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            fail("a positive integer")
        return value
    if kind == "strategy":
        if value not in STRATEGIES:
            fail(f"one of {STRATEGIES}")
        return value
    if kind == "intlist":
        if not isinstance(value, list) or not value or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            fail("a nonempty list of integers")
        return [int(v) for v in value]
    if kind == "monomials":
        return _check_monomials(f"{section}.{key}", value)
    if kind == "string":
        if not isinstance(value, str):
            fail("a string")
        return value
    raise EngineError(f"unknown config value kind {kind!r}")


def _check_monomials(where: str, value):
    if not isinstance(value, list):
        raise InvalidInputError(f"config key {where}: expected a list of [coeff, exponents] pairs")
    out = []
    for item in value:
        ok = (
            isinstance(item, list)
            and len(item) == 2
            and isinstance(item[0], int)
            and isinstance(item[1], list)
            and all(isinstance(e, int) and e >= 0 for e in item[1])
        )
        if not ok:
            raise InvalidInputError(f"config key {where}: malformed monomial {item!r}")
        out.append([int(item[0]), [int(e) for e in item[1]]])
    return out


def _poly_from_monomials(nvars: int, degree: int, monos, where: str) -> MultiPoly:
    terms: dict[tuple, int] = {}
    for coeff, exps in monos:
        if len(exps) != nvars or sum(exps) != degree:
            raise InvalidInputError(
                f"{where}: monomial {exps} does not have degree {degree} in {nvars} variables"
            )
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return MultiPoly(nvars, degree, terms)


def _build_surface(doc: dict) -> ConicBundleSurface:
    for key in ("n", "a", "e", "gram"):
        if key not in doc:
            raise InvalidInputError(f"surface section is missing key {key!r}")
    n = _check_value("surface", "n", "posint", doc["n"])
    a = _check_value("surface", "a", "intlist", doc["a"])
    if len(a) != 3 or any(w < 0 for w in a):
        raise InvalidInputError("surface.a must be three nonnegative weights")
    e = doc["e"]
    if not isinstance(e, int) or isinstance(e, bool):
        raise InvalidInputError("surface.e must be an integer")
    gram = doc["gram"]
    if not (isinstance(gram, list) and len(gram) == 3 and all(
        isinstance(row, list) and len(row) == 3 for row in gram
    )):
        raise InvalidInputError("surface.gram must be a 3x3 matrix of monomial lists")
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            degree = a[i] + a[j] + e
            monos = _check_monomials(f"surface.gram[{i}][{j}]", gram[i][j])
            try:
                row.append(_poly_from_monomials(n + 1, degree, monos, f"surface.gram[{i}][{j}]"))
            except InvalidInputError as exc:
                raise InvalidInputError(f"gram entry ({i}, {j}): {exc}") from None
        rows.append(row)
    surface = ConicBundleSurface(n, a, e, rows)
    validate(surface)
    return surface


def _poly_doc(poly: MultiPoly) -> list:
    return [[c, list(exps)] for exps, c in sorted(poly.terms.items())]


def _surface_doc(surface: ConicBundleSurface) -> dict:
    return {
        "n": surface.n,
        "a": list(surface.a),
        "e": surface.e,
        "gram": [[_poly_doc(f) for f in row] for row in surface.gram],
    }


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config document before any computation."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"config syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise InvalidInputError("config document must be a JSON object")
    known = {"surface", "model"} | set(_SECTION_KEYS)
    for key in raw:
        if key not in known:
            raise InvalidInputError(f"unknown config section {key!r}")

    surface = model = None
    doc: dict = {}
    if "surface" in raw:
        if not isinstance(raw["surface"], dict):
            raise InvalidInputError("surface section must be an object")
        surface = _build_surface(raw["surface"])
        doc["surface"] = _surface_doc(surface)
    if "model" in raw:
        if surface is None:
            raise InvalidInputError("a model section needs a surface section")
        if not (isinstance(raw["model"], dict) and "alpha" in raw["model"]):
            raise InvalidInputError("model section must carry an alpha fraction string")
        alpha_raw = raw["model"]["alpha"]
        if not isinstance(alpha_raw, (str, int)):
            raise InvalidInputError("model.alpha must be an exact fraction string")
        try:
            alpha = Fraction(alpha_raw)
        except (ValueError, ZeroDivisionError):
            raise InvalidInputError(f"model.alpha {alpha_raw!r} is not a fraction") from None
        model = HeightModel.for_surface(surface, alpha)
        doc["model"] = {"alpha": str(model.alpha)}

    for name, table in _SECTION_KEYS.items():
        if name not in raw:
            continue
        if not isinstance(raw[name], dict):
            raise InvalidInputError(f"section {name!r} must be an object")
        for key in raw[name]:
            if key not in table:
                raise InvalidInputError(f"unknown key {key!r} in section {name!r}")
        checked = {}
        for key, (_, _, kind) in table.items():
            if key in raw[name]:
                checked[key] = _check_value(name, key, kind, raw[name][key])
        doc[name] = checked

    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return RunConfig(document=doc, digest=digest, surface=surface, model=model)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(emit_config(cfg)) reproduces cfg."""
    return json.dumps(cfg.document, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# serialization helpers


def _g12(x: float) -> str:
    return "%.12g" % float(x)


def _ystr(coords) -> str:
    return ":".join(str(c) for c in coords)


def _need_model(cfg: RunConfig):
    if cfg.surface is None:
        raise InvalidInputError("this subcommand needs a surface section")
    if cfg.model is None:
        raise InvalidInputError("this subcommand needs a model section")


# ---------------------------------------------------------------------------
# subcommand handlers: payload dict + csv header/rows + one stdout line


def _run_validate(cfg, threads):
    _need_model(cfg)
    surface, model = cfg.surface, cfg.model
    disc = discriminant(surface)
    payload = {
        "n": surface.n,
        "a": list(surface.a),
        "e": surface.e,
        "alpha": str(model.alpha),
        "height_exponent": str(model.A),
        "disc_degree": disc.degree,
        "disc_terms": len(disc.terms),
        "surface_sha256": surface_digest(surface),
    }
    rows = [[k, str(v)] for k, v in payload.items()]
    return payload, ["key", "value"], rows, "surface and model are valid"


def _run_count(cfg, threads):
    _need_model(cfg)
    sec = cfg.section("count")
    cs = count_total(cfg.surface, cfg.model, sec["bound"], sec["strategy"], threads)
    payload = {
        "bound": cs.bound,
        "base_height": cs.base_height,
        "strategy": cs.strategy,
        "total": cs.total,
        "fibres": [[_ystr(yc), c] for yc, c in cs.fibres],
        "singular": [_ystr(yc) for yc in cs.singular],
    }
    rows = [[_ystr(yc), str(c)] for yc, c in cs.fibres]
    line = f"N(U, H, {cs.bound}) = {cs.total} over {len(cs.fibres)} fibres"
    return payload, ["y", "count"], rows, line


def _run_fibre(cfg, threads):
    _need_model(cfg)
    sec = cfg.section("fibre")
    fc, form = _smooth_fibre(cfg.surface, cfg.model, sec["y"])
    rep = _fibre_report(fc, form, cfg.model)
    n = _count_fibre(fc, form, cfg.model, sec["bound"], sec["strategy"])
    payload = {
        "y": _ystr(rep.y),
        "bound": sec["bound"],
        "strategy": sec["strategy"],
        "count": n,
        "disc": str(fc.disc),
        "minors_gcd": str(fc.minors_gcd),
        "soluble": rep.soluble,
        "sigma_inf": rep.sigma_inf,
        "sigma_p": [[p, str(v)] for p, v in sorted(rep.sigma_p.items())],
        "tamagawa": rep.tamagawa,
        "peyre": rep.peyre,
    }
    header = ["y", "count", "soluble", "sigma_inf", "tamagawa", "peyre"]
    rows = [[
        _ystr(rep.y), str(n), str(rep.soluble).lower(),
        _g12(rep.sigma_inf), _g12(rep.tamagawa), _g12(rep.peyre),
    ]]
    line = f"fibre {_ystr(rep.y)}: count {n}, peyre constant {_g12(rep.peyre)}"
    return payload, header, rows, line


def _run_density(cfg, threads):
    _need_model(cfg)
    sec = cfg.section("density")
    rep = fibre_report(cfg.surface, cfg.model, sec["y"])
    locals_ = dict(rep.sigma_p)
    if sec["p"] is not None and sec["p"] not in locals_:
        locals_[sec["p"]] = sigma_p(cfg.surface, sec["y"], sec["p"])
    payload = {
        "y": _ystr(rep.y),
        "soluble": rep.soluble,
        "sigma_p": [[p, str(v)] for p, v in sorted(locals_.items())],
        "sigma_inf": rep.sigma_inf,
        "tamagawa": rep.tamagawa,
    }
    header = ["y", "place", "value"]
    rows = [[_ystr(rep.y), str(p), str(v)] for p, v in sorted(locals_.items())]
    rows.append([_ystr(rep.y), "inf", _g12(rep.sigma_inf)])
    rows.append([_ystr(rep.y), "tamagawa", _g12(rep.tamagawa)])
    if sec["p"] is not None:
        line = f"sigma_{sec['p']} = {locals_[sec['p']]}"
    else:
        line = f"tamagawa({_ystr(rep.y)}) = {_g12(rep.tamagawa)}"
    return payload, header, rows, line


def _run_peyre_sum(cfg, threads):
    _need_model(cfg)
    sec = cfg.section("peyre-sum")
    ps = peyre_sum(cfg.surface, cfg.model, sec["max_height"], workers=threads)
    payload = {
        "max_height": ps.max_height,
        "total": ps.total,
        "error_bound": ps.error_bound,
        "n_smooth": ps.n_smooth,
        "n_soluble": ps.n_soluble,
        "shells": list(ps.shells),
    }
    header = ["height", "shell", "partial"]
    rows = []
    for t, shell in enumerate(ps.shells, start=1):
        running = ps.partial(t)
        rows.append([str(t), _g12(shell), _g12(running)])
    line = f"peyre partial sum T={ps.max_height}: {_g12(ps.total)} ({ps.n_soluble}/{ps.n_smooth} fibres soluble)"
    return payload, header, rows, line


def _run_probe(cfg, threads):
    _need_model(cfg)
    sec = cfg.section("probe")
    bounds = tuple(sec["bounds"]) if sec["bounds"] else None
    rep = asymptotic_probe(cfg.surface, cfg.model, bounds, sec["strategy"], workers=threads)
    payload = {
        "bounds": list(rep.bounds),
        "totals": [s.total for s in rep.slices],
        "ratios": list(rep.ratios),
        "slope": rep.slope,
        "residuals": list(rep.residuals),
        "peyre_total": rep.peyre.total,
        "peyre_partials": [[t, v] for t, v in rep.peyre_partials],
        "n_smooth": rep.peyre.n_smooth,
        "n_soluble": rep.peyre.n_soluble,
        "metadata": rep.metadata,
    }
    header = ["bound", "y", "count"]
    rows = [
        [str(s.bound), _ystr(yc), str(c)]
        for s in rep.slices
        for yc, c in s.fibres
    ]
    line = f"slope {_g12(rep.slope)} against peyre partial {_g12(rep.peyre.total)}"
    return payload, header, rows, line


def _run_bt_probe(cfg, threads):
    _need_model(cfg)
    if cfg.surface != two_squares_bundle():
        raise InvalidInputError("bt-probe runs on the two-squares bundle; configure that surface")
    sec = cfg.section("bt-probe")
    rep = bt_probe(cfg.model.alpha, sec["t_max"], growth_terms=sec["growth_terms"])
    payload = {
        "alpha": str(rep.alpha),
        "t_max": rep.t_max,
        "lower_violations": list(rep.lower_violations),
        "growth": [[k, t, v, b] for k, t, v, b in rep.growth],
        "growth_monotone": rep.growth_monotone,
        "formula_max_rel_err": rep.formula_max_rel_err,
        "rows": [
            {
                "t": r.t,
                "omega": r.omega,
                "soluble": r.soluble,
                "tau": r.tau,
                "normalized": r.normalized,
                "admissible": r.admissible,
                "formula": r.formula,
            }
            for r in rep.rows
        ],
    }
    header = ["t", "omega", "soluble", "tau", "normalized", "admissible", "formula"]
    rows = [
        [
            str(r.t), str(r.omega), str(r.soluble).lower(), _g12(r.tau), _g12(r.normalized),
            str(r.admissible).lower(), _g12(r.formula) if r.formula is not None else "",
        ]
        for r in rep.rows
    ]
    viol = ",".join(str(t) for t in rep.lower_violations)
    line = f"lower-bound violations up to {rep.t_max}: {viol}"
    return payload, header, rows, line


def _run_northcott_probe(cfg, threads):
    sec = cfg.section("northcott-probe")
    rep = northcott_probe(sec["a"], sec["count"])
    rows = [[_ystr(yc), str(h)] for yc, h in rep.rows]
    payload = {
        "a": rep.a,
        "alpha": str(rep.alpha),
        "exponent": rep.exponent,
        "unit_count": rep.unit_count,
        "rows": rows,
    }
    header = ["y", "section_height"]
    line = (
        f"a={rep.a}: section height H(y)^{rep.exponent}, "
        f"{rep.unit_count} of {len(rep.rows)} points at height 1"
    )
    return payload, header, rows, line


def _run_import_cubic(cfg, threads):
    sec = cfg.section("import-cubic")
    nvars = sec["nvars"]
    cubic = _poly_from_monomials(nvars, 3, sec["cubic"], "import-cubic.cubic")
    if len(sec["p"]) != nvars or len(sec["q"]) != nvars:
        raise InvalidInputError("import-cubic line points must match the cubic's variables")
    surface = import_cubic_with_line(cubic, sec["p"], sec["q"])
    payload = {
        "surface": _surface_doc(surface),
        "surface_sha256": surface_digest(surface),
    }
    header = ["i", "j", "entry"]
    rows = [
        [str(i), str(j), json.dumps(_poly_doc(surface.gram[i][j]), separators=(",", ":"))]
        for i in range(3)
        for j in range(3)
    ]
    line = f"imported bundle over P^{surface.n} with weights {surface.a}, e={surface.e}"
    return payload, header, rows, line


_HANDLERS = {
    "validate": _run_validate,
    "count": _run_count,
    "fibre": _run_fibre,
    "density": _run_density,
    "peyre-sum": _run_peyre_sum,
    "probe": _run_probe,
    "bt-probe": _run_bt_probe,
    "northcott-probe": _run_northcott_probe,
    "import-cubic": _run_import_cubic,
}


# ---------------------------------------------------------------------------
# artifact writing


def _write_report(out_dir: Path, name: str, cfg: RunConfig, payload: dict) -> Path:
    doc = {
        "command": name,
        "config_sha256": cfg.digest,
        "version": __version__,
        "payload": payload,
    }
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


def _write_summary(out_dir: Path, name: str, header, rows) -> Path:
    path = out_dir / f"{name}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def run(subcommand: str, cfg: RunConfig, out_dir=".", threads: int = 1):
    """Execute one subcommand and write its JSON report and CSV summary."""
    if subcommand not in _HANDLERS:
        raise InvalidInputError(f"unknown subcommand {subcommand!r}")
    if threads < 1:
        raise InvalidInputError("thread count must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload, header, rows, line = _HANDLERS[subcommand](cfg, threads)
    _write_report(out, subcommand, cfg, payload)
    _write_summary(out, subcommand, header, rows)
    return payload, line


def _emit_error(out_dir, subcommand, digest, exc, code) -> None:
    record = {
        "command": subcommand,
        "config_sha256": digest,
        "version": __version__,
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    try:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "error.json").write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    except OSError:
        pass
    print(f"error: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conic-census",
        description="exact point counts and Peyre constants for conic bundles",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config document")
    parser.add_argument("--out", default=None, help="output directory (default: config output.dir)")
    parser.add_argument("--threads", type=int, default=1, help="upper bound on worker processes")
    args = parser.parse_args(argv)

    digest = ""
    out_dir = args.out or "."
    try:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise InvalidInputError(f"cannot read config: {exc}") from None
        cfg = parse_config(text)
        digest = cfg.digest
        if args.out is None:
            out_dir = cfg.section("output")["dir"]
        _, line = run(args.subcommand, cfg, out_dir, args.threads)
        print(line)
        return 0
    except InvalidInputError as exc:
        _emit_error(out_dir, args.subcommand, digest, exc, 2)
        return 2
    except BudgetExceeded as exc:
        _emit_error(out_dir, args.subcommand, digest, exc, 3)
        return 3
    except EngineError as exc:
        _emit_error(out_dir, args.subcommand, digest, exc, 4)
        return 4


if __name__ == "__main__":
    sys.exit(main())
