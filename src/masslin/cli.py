"""Command-line surface and bit-exact JSON interchange.

Polytopes travel as *.polytope.json documents: {"name", "dim", "facets":
[{"normal": [ints], "kappa": "p/q", "label": "F1"}, ...]}.  Rationals
always serialize as "p/q" (or "p" when the denominator is 1), never as
decimals, and every document is emitted with a fixed field order and
fixed indentation so that parse -> serialize is byte-identical.

Commands: construct (builders to documents), check (smoothness, mass
linearity, facet partitions, equivalence, inessential witness, skeleton
barycenter pairings), classify (the 4-dimensional pipeline with its
blowdown trace), blowup / blowdown, barycenters, and mlspace (the
closed-form coefficient spaces of the bundle families).

Exit codes: 0 success, 1 usage errors, 2 domain errors (malformed
documents, invariant violations, impossible operations); domain errors
print one machine-readable JSON object.  check and classify also accept
a directory of *.polytope.json files, processed in name order; --jobs
parallelizes that batch.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import click

from .constructions import (
    Bundle121Spec,
    D2PolygonBundleSpec,
    YkBundleSpec,
    blowdown,
    blowup,
    bundle_121,
    bundle_D2_polygon,
    bundle_Yk,
    double_expansion,
    expansion,
    minimal_family_a3,
    minimal_family_b,
    ml_space_121,
    ml_space_D2_polygon,
    ml_space_Yk,
    product,
    simplex,
)
from .errors import PolytopeError, StructuralInconsistency
from .linalg import dot
from .masslinear import (
    _beta,
    equivalence_classes,
    fully_mass_linear_test,
    generating_vector,
    mass_linear_test,
)
from .measure import _functional, skeleton_barycenter
from .polytope import HPolytope
from .recognize import classify4d


# ---------------------------------------------------------------------------
# rationals and documents


def fmt_frac(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    # type, not isinstance: JSON true is a bool, and bool subclasses int
    if type(s) is int:
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise PolytopeError(f"not a rational number: {s!r}") from exc
    raise PolytopeError(f"not a rational number: {s!r}")


def fmt_vec(v) -> list[str]:
    return [fmt_frac(x) for x in v]


def parse_vector(s: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in s.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"not a comma-separated rational vector: {s!r}") from exc


def parse_int_vector(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in s.split(","))
    except ValueError as exc:
        raise click.UsageError(f"not a comma-separated integer vector: {s!r}") from exc


def parse_number(s: str, name: str, kind=int):
    """s as an int, or a Fraction; a malformed value is a usage error."""
    try:
        return kind(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"{name} is not {'an integer' if kind is int else 'a rational number'}: {s!r}") from exc


def polytope_to_document(poly: HPolytope) -> dict:
    return {
        "name": poly.name,
        "dim": poly.dim,
        "facets": [
            {
                "normal": [int(c) for c in eta],
                "kappa": fmt_frac(k),
                "label": label,
            }
            for eta, k, label in zip(poly.conormals, poly.support, poly.labels)
        ],
    }


def document_to_polytope(data) -> HPolytope:
    if not isinstance(data, dict):
        raise PolytopeError("polytope document must be a JSON object")
    for key in ("dim", "facets"):
        if key not in data:
            raise PolytopeError(f"polytope document lacks the {key!r} field")
    if type(data["dim"]) is not int:
        raise PolytopeError("dim must be an integer")
    facets = data["facets"]
    if not isinstance(facets, list) or not facets:
        raise PolytopeError("facets must be a non-empty list")
    conormals, support, labels = [], [], []
    for i, f in enumerate(facets):
        if not isinstance(f, dict) or "normal" not in f or "kappa" not in f:
            raise PolytopeError(f"facet {i} needs normal and kappa fields")
        normal = f["normal"]
        if not isinstance(normal, list) or not all(type(c) is int for c in normal):
            raise PolytopeError(f"facet {i} normal must be a list of integers")
        conormals.append(tuple(normal))
        support.append(parse_frac(f["kappa"]))
        label = f.get("label")
        if label is not None:
            if not isinstance(label, str):
                raise PolytopeError(f"facet {i} label must be a string")
            labels.append(label)
    if labels and len(labels) != len(facets):
        raise PolytopeError("either every facet carries a label or none does")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise PolytopeError("name must be a string")
    return HPolytope(
        data["dim"],
        tuple(conormals),
        tuple(support),
        tuple(labels),
        name,
    )


def load_polytope(path: Path) -> HPolytope:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise PolytopeError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PolytopeError(f"{path} is not valid JSON: {exc}") from exc
    return document_to_polytope(data)


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# output plumbing


def render_text(doc, indent=0) -> str:
    """Key: value lines; nested structures indent two spaces."""
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            if isinstance(value, (dict, list)) and not _is_scalar_list(value):
                lines.append(f"{pad}{key}:")
                lines.append(render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(doc, list):
        for item in doc:
            if isinstance(item, (dict, list)) and not _is_scalar_list(item):
                lines.append(f"{pad}-")
                lines.append(render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(doc)}")
    return "\n".join(line for line in lines if line)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(x, (dict, list)) for x in value
    )


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, list):
        return ", ".join(_scalar(x) for x in value)
    return str(value)


def emit(doc, fmt: str) -> None:
    if fmt == "json":
        click.echo(dumps(doc), nl=False)
    else:
        click.echo(render_text(doc))


def fail_domain(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    extra = getattr(exc, "extra", None)
    if extra:
        payload["error"].update(extra)
    click.echo(dumps(payload), nl=False)
    sys.exit(2)


class BlowdownNotPossible(PolytopeError):
    def __init__(self, message, failed_condition, alternatives):
        super().__init__(message)
        self.extra = {
            "failed_condition": failed_condition,
            "alternatives": alternatives,
        }


DOMAIN_ERRORS = (PolytopeError, StructuralInconsistency, ValueError, KeyError)


def domain_guard(fn):
    """Turn library errors into exit-2 JSON; leave usage errors alone."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except DOMAIN_ERRORS as exc:
            fail_domain(exc)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


# ---------------------------------------------------------------------------
# report documents


def check_document(poly: HPolytope, H) -> dict:
    report = mass_linear_test(poly, H)
    eq = equivalence_classes(poly)
    witness = _beta(poly, report.gamma)
    full = fully_mass_linear_test(poly, H)
    xi = generating_vector(poly, H, report)
    pairing = None
    if report.verdict:
        pairing = fmt_frac(dot(report.gamma, poly.support))
    return {
        "command": "check",
        "polytope": poly.name,
        "dim": poly.dim,
        "functional": fmt_vec(H),
        "smooth": poly.is_smooth(),
        "mass_linear": report.verdict,
        "gamma": fmt_vec(report.gamma) if report.gamma is not None else None,
        "pairing": pairing,
        "symmetric": [poly.labels[i] for i in sorted(report.symmetric)],
        "asymmetric": [poly.labels[i] for i in sorted(report.asymmetric)],
        "equivalence_classes": [
            [poly.labels[i] for i in sorted(cls)]
            for cls in sorted(eq.classes, key=min)
        ],
        "inessential": witness is not None,
        "beta": fmt_vec(witness.beta) if witness is not None else None,
        "essential": report.verdict and witness is None,
        "fully_mass_linear": full.verdict,
        "skeleton_pairings": fmt_vec(full.values),
        "generating_vector": fmt_vec(xi) if xi is not None else None,
    }


def classify_document(poly: HPolytope, H, with_stages=False) -> dict:
    result = classify4d(poly, H)
    trace = [
        {
            "removed": step.label,
            "position": step.facet,
            "face": [stage.labels[i] for i in step.index_set],
            "epsilon": fmt_frac(step.epsilon),
            "tag": step.tag,
        }
        for step, stage in zip(result.trace, result.stages)
    ]
    doc = {
        "command": "classify",
        "polytope": poly.name,
        "dim": poly.dim,
        "functional": fmt_vec(H),
        "type": result.type,
        "alternatives": [t for t, _ in result.alternatives],
        "trace": trace,
        "terminal": polytope_to_document(result.terminal),
        "terminal_essential": result.terminal_inessential is None,
        "terminal_gamma": fmt_vec(result.terminal_report.gamma)
        if result.terminal_report.gamma is not None
        else None,
        "certificate": certificate_summary(result),
        "detail": result.detail,
    }
    if with_stages:
        doc["stages"] = [polytope_to_document(p) for p in result.stages]
    return doc


def certificate_summary(result) -> dict | None:
    cert = result.certificate
    if cert is None:
        return None
    labels = result.terminal.labels
    return {
        "family": cert.family,
        "base": [labels[i] for i in cert.base],
        "fiber": [labels[i] for i in cert.fiber],
    }


def barycenters_document(poly: HPolytope, H) -> dict:
    Hv = _functional(poly, H)
    table = []
    for k in range(poly.dim + 1):
        b = skeleton_barycenter(poly, k)
        table.append(
            {"k": k, "barycenter": fmt_vec(b), "pairing": fmt_frac(dot(Hv, b))}
        )
    return {
        "command": "barycenters",
        "polytope": poly.name,
        "dim": poly.dim,
        "functional": fmt_vec(Hv),
        "table": table,
    }


def space_document(family: str, parameters: dict, space) -> dict:
    def pairs(entries):
        return [
            {"functional": fmt_vec(H), "coefficients": fmt_vec(g)}
            for H, g in entries
        ]

    return {
        "command": "mlspace",
        "family": family,
        "parameters": parameters,
        "mass_linear": pairs(space.mass_linear),
        "inessential": pairs(space.inessential),
        "has_essential": space.has_essential,
    }


# ---------------------------------------------------------------------------
# construct parameter parsing


def parse_kv(tokens) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise click.UsageError(f"parameters are key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if key in out:
            raise click.UsageError(f"duplicate parameter {key!r}")
        out[key] = value
    return out


def take(params: dict, key: str, default=None, required=False) -> str:
    if key in params:
        return params.pop(key)
    if required:
        raise click.UsageError(f"missing required parameter {key}=...")
    return default


def finish_params(params: dict) -> None:
    if params:
        raise click.UsageError(f"unknown parameters: {', '.join(sorted(params))}")


def parse_d2_polygon_spec(params: dict) -> D2PolygonBundleSpec:
    """The polygon document, flat twist pairs and kappa of a triangle
    bundle over a polygon."""
    polygon = load_polytope(Path(take(params, "polygon", required=True)))
    flat = parse_int_vector(take(params, "twists", required=True))
    if len(flat) % 2:
        raise click.UsageError("twists must pair up: b1,c1,b2,c2,...")
    twists = tuple((flat[2 * i], flat[2 * i + 1]) for i in range(len(flat) // 2))
    kappa = parse_vector(take(params, "kappa", required=True))
    finish_params(params)
    return D2PolygonBundleSpec(polygon, twists, kappa)


def build_family(family: str, params: dict) -> HPolytope:
    if family == "simplex":
        n = parse_number(take(params, "n", required=True), "n")
        size = parse_number(take(params, "size", default="1"), "size", Fraction)
        finish_params(params)
        return simplex(n, size)
    if family == "product":
        paths = take(params, "of", required=True).split(",")
        if len(paths) != 2:
            raise click.UsageError("product needs of=FILE1,FILE2")
        finish_params(params)
        return product(load_polytope(Path(paths[0])), load_polytope(Path(paths[1])))
    if family == "bundle-yk":
        k = parse_number(take(params, "k", required=True), "k")
        a = parse_int_vector(take(params, "a", required=True))
        kappa = parse_vector(take(params, "kappa", required=True))
        finish_params(params)
        return bundle_Yk(YkBundleSpec(k, a, kappa))
    if family == "bundle-121":
        a = parse_int_vector(take(params, "a", required=True))
        d = parse_number(take(params, "d", required=True), "d")
        kappa = parse_vector(take(params, "kappa", required=True))
        finish_params(params)
        return bundle_121(Bundle121Spec(a, d, kappa))
    if family == "bundle-d2-polygon":
        return bundle_D2_polygon(parse_d2_polygon_spec(params))
    if family == "expansion":
        core = load_polytope(Path(take(params, "core", required=True)))
        facet = resolve_facet(core, take(params, "facet", required=True))
        fold = parse_number(take(params, "fold", default="1"), "fold")
        finish_params(params)
        return expansion(core, facet, fold=fold)
    if family == "double-expansion":
        core = load_polytope(Path(take(params, "core", required=True)))
        j1 = resolve_facet(core, take(params, "j1", required=True))
        j2 = resolve_facet(core, take(params, "j2", required=True))
        finish_params(params)
        return double_expansion(core, j1, j2)
    if family == "minimal-a3":
        n = parse_number(take(params, "n", required=True), "n")
        finish_params(params)
        return minimal_family_a3(n)
    if family == "minimal-b":
        n = parse_number(take(params, "n", required=True), "n")
        finish_params(params)
        return minimal_family_b(n)
    raise click.UsageError(f"unknown family {family!r}")


FAMILIES = (
    "simplex",
    "product",
    "bundle-yk",
    "bundle-121",
    "bundle-d2-polygon",
    "expansion",
    "double-expansion",
    "minimal-a3",
    "minimal-b",
)


def resolve_facet(poly: HPolytope, token: str) -> int:
    token = token.strip()
    if token in poly.labels:
        return poly.labels.index(token)
    if token.lstrip("-").isdigit():
        i = int(token)
        if 0 <= i < poly.n_facets:
            return i
    raise PolytopeError(f"no facet named {token!r}")


def resolve_face(poly: HPolytope, spec: str) -> tuple[int, ...]:
    return tuple(sorted(resolve_facet(poly, tok) for tok in spec.split(",")))


# ---------------------------------------------------------------------------
# batch plumbing


def _batch_paths(directory: Path) -> list[Path]:
    files = sorted(directory.glob("*.polytope.json"))
    if not files:
        raise PolytopeError(f"no *.polytope.json files in {directory}")
    return files


def _batch_worker(args) -> dict:
    """One file's report: document is check_document or a partial of
    classify_document, called with the polytope and H."""
    document, path_str, h_str = args
    path = Path(path_str)
    try:
        poly = load_polytope(path)
        doc = document(poly, parse_vector(h_str))
    except DOMAIN_ERRORS as exc:
        return {
            "file": path.name,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
    return {"file": path.name, **doc}


def run_batch(document, directory: Path, h_str: str, jobs: int) -> list[dict]:
    args = [(document, str(p), h_str) for p in _batch_paths(directory)]
    if jobs > 1:
        # imported here, so that a plain import of the CLI loads no
        # process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_batch_worker, args))
    return [_batch_worker(a) for a in args]


def emit_batch(command: str, reports: list[dict], fmt: str) -> None:
    doc = {"command": command, "reports": reports}
    emit(doc, fmt)
    if any("error" in r for r in reports):
        sys.exit(2)


# ---------------------------------------------------------------------------
# commands


FORMAT = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "text"]),
    default="json",
    show_default=True,
    help="output as machine-readable JSON or indented text",
)


@click.group()
def cli():
    """Exact tools for mass linear functionals on smooth polytopes."""


@cli.command()
@click.argument("polytope", type=click.Path(exists=True, path_type=Path))
@click.option("-H", "--functional", "h_str", required=True, help="H as c1,c2,...")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@FORMAT
@domain_guard
def check(polytope: Path, h_str: str, jobs: int, fmt: str):
    """Smoothness, mass linearity, partitions, and barycenter pairings."""
    if polytope.is_dir():
        reports = run_batch(check_document, polytope, h_str, jobs)
        emit_batch("check-batch", reports, fmt)
        return
    poly = load_polytope(polytope)
    emit(check_document(poly, parse_vector(h_str)), fmt)


@cli.command()
@click.argument("polytope", type=click.Path(exists=True, path_type=Path))
@click.option("-H", "--functional", "h_str", required=True, help="H as c1,c2,...")
@click.option("--trace", "with_stages", is_flag=True, help="embed every stage")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@FORMAT
@domain_guard
def classify(polytope: Path, h_str: str, with_stages: bool, jobs: int, fmt: str):
    """Blow down to a terminal model and name its family."""
    if polytope.is_dir():
        reports = run_batch(partial(classify_document, with_stages=with_stages), polytope, h_str, jobs)
        emit_batch("classify-batch", reports, fmt)
        return
    poly = load_polytope(polytope)
    emit(classify_document(poly, parse_vector(h_str), with_stages), fmt)


@cli.command()
@click.argument("family", type=click.Choice(FAMILIES))
@click.argument("params", nargs=-1)
@click.option("--name", default=None, help="name stored in the document")
@FORMAT
@domain_guard
def construct(family: str, params, name, fmt: str):
    """Build a polytope document from family parameters (key=value)."""
    poly = build_family(family, parse_kv(params))
    if name is None:
        tokens = " ".join(sorted(params))
        name = f"{family} {tokens}" if tokens else family
    emit({**polytope_to_document(poly), "name": name}, fmt)


@cli.command(name="blowup")
@click.argument("polytope", type=click.Path(exists=True, path_type=Path))
@click.option("--face", required=True, help="facet labels or indices, comma-separated")
@click.option("--eps", default=None, help="cut depth as p/q (default: half the slack)")
@FORMAT
@domain_guard
def blowup_cmd(polytope: Path, face: str, eps, fmt: str):
    """Blow up along the face cut by the named facets."""
    poly = load_polytope(polytope)
    index_set = resolve_face(poly, face)
    out = blowup(poly, index_set, None if eps is None else parse_number(eps, "--eps", Fraction))
    emit(polytope_to_document(out), fmt)


@cli.command(name="blowdown")
@click.argument("polytope", type=click.Path(exists=True, path_type=Path))
@click.option("--facet", required=True, help="facet label or index to remove")
@FORMAT
@domain_guard
def blowdown_cmd(polytope: Path, facet: str, fmt: str):
    """Blow down the named exceptional facet."""
    poly = load_polytope(polytope)
    e = resolve_facet(poly, facet)
    report = blowdown(poly, e)
    if not report.ok:
        raise BlowdownNotPossible(
            f"facet {poly.labels[e]} does not blow down: {report.detail}",
            report.failed_condition,
            [[poly.labels[i] for i in sorted(alt)] for alt in report.alternatives],
        )
    emit(polytope_to_document(report.polytope), fmt)


@cli.command()
@click.argument("polytope", type=click.Path(exists=True, path_type=Path))
@click.option("-H", "--functional", "h_str", required=True, help="H as c1,c2,...")
@FORMAT
@domain_guard
def barycenters(polytope: Path, h_str: str, fmt: str):
    """Skeleton barycenters B_0..B_n and the pairings <H, B_k>."""
    poly = load_polytope(polytope)
    emit(barycenters_document(poly, parse_vector(h_str)), fmt)


@cli.command()
@click.argument("family", type=click.Choice(["bundle-yk", "bundle-121", "bundle-d2-polygon"]))
@click.argument("params", nargs=-1)
@FORMAT
@domain_guard
def mlspace(family: str, params, fmt: str):
    """Mass linear and inessential coefficient spaces of a bundle family."""
    kv = parse_kv(params)
    if family == "bundle-yk":
        k = parse_number(take(kv, "k", required=True), "k")
        a = parse_int_vector(take(kv, "a", required=True))
        finish_params(kv)
        doc = space_document(family, {"k": k, "a": list(a)}, ml_space_Yk(k, a))
    elif family == "bundle-121":
        a = parse_int_vector(take(kv, "a", required=True))
        d = parse_number(take(kv, "d", required=True), "d")
        finish_params(kv)
        doc = space_document(family, {"a": list(a), "d": d}, ml_space_121(a, d))
    else:
        spec = parse_d2_polygon_spec(kv)
        doc = space_document(
            family,
            {
                "polygon": polytope_to_document(spec.polygon),
                "twists": [list(t) for t in spec.twists],
                "kappa": fmt_vec(spec.kappa),
            },
            ml_space_D2_polygon(spec),
        )
    emit(doc, fmt)


def main(argv=None) -> int:
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 2
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    return 0 if rv is None else int(rv)


if __name__ == "__main__":
    raise SystemExit(main())
