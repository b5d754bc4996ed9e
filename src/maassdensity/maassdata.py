"""Ingestion and validation of externally computed level-1 eigenform spectral
data: spectral parameters, parities, norms, and Hecke eigenvalues.

Formats. CSV: a comment line `# normalization: hecke-unit` followed by a
header `t,parity,norm_sq,lambda_2,lambda_3,...` (integer indices in the
header). JSON mirrors it: {"normalization": "hecke-unit", "forms": [{"t": ...,
"parity": ..., "norm_sq": ..., "lambdas": {"2": ...}}]}. Files that declare a
different eigenvalue normalization are refused rather than reinterpreted.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError

__all__ = [
    "MaassFormRecord",
    "parse_records",
    "parse_records_text",
    "serialize_records",
    "validate_records",
]

_KIM_SARNAK = 7.0 / 64.0
# largest |lambda_2 lambda_3 - lambda_6| that validate_records passes
_COEFF_TOL = 1e-6
_NORMALIZATION = "hecke-unit"


@dataclass(frozen=True)
class MaassFormRecord:
    t: float
    parity: str  # even | odd
    norm_sq: float
    lambdas: dict = field(default_factory=dict)  # index -> eigenvalue
    source: str = ""

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise DataFormatError(f"parity must be even/odd, got {self.parity!r}")
        if not self.t >= 0.0:
            raise DataFormatError(f"spectral parameter t must be >= 0, got {self.t}")
        if not self.norm_sq > 0.0:
            raise DataFormatError(f"norm_sq must be positive, got {self.norm_sq}")


def _finish(records: list, source: str) -> list:
    records.sort(key=lambda rec: rec.t)
    for a, b in zip(records, records[1:]):
        if abs(a.t - b.t) < 1e-9:
            raise DataFormatError(
                f"{source}: duplicate spectral parameter t = {a.t!r}"
            )
    return records


def parse_records_text(text: str, format: str, source: str = "<text>") -> list:
    if format == "csv":
        return _parse_csv(text, source)
    if format == "json":
        return _parse_json(text, source)
    raise DataFormatError(f"unknown format {format!r}")


def parse_records(path: str, format: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_records_text(fh.read(), format, source=path)


def _parse_csv(text: str, source: str) -> list:
    lines = text.splitlines()
    norm_seen = False
    body = []
    for ln in lines:
        stripped = ln.strip()
        if stripped.startswith("#"):
            decl = stripped.lstrip("#").strip()
            if decl.startswith("normalization:"):
                value = decl.split(":", 1)[1].strip()
                if value != _NORMALIZATION:
                    raise DataFormatError(
                        f"{source}: unsupported normalization {value!r}; "
                        f"only {_NORMALIZATION!r} files are accepted"
                    )
                norm_seen = True
            continue
        if stripped:
            body.append(ln)
    if not body:
        return []
    if not norm_seen:
        raise DataFormatError(
            f"{source}: missing '# normalization: {_NORMALIZATION}' declaration"
        )
    reader = csv.reader(io.StringIO("\n".join(body)))
    header = next(reader)
    expected = ["t", "parity", "norm_sq"]
    if [h.strip() for h in header[:3]] != expected:
        raise DataFormatError(f"{source}: header must start with {expected}")
    indices = []
    for col in header[3:]:
        col = col.strip()
        if not col.startswith("lambda_"):
            raise DataFormatError(f"{source}: bad coefficient column {col!r}")
        try:
            indices.append(int(col[len("lambda_") :]))
        except ValueError as exc:
            raise DataFormatError(f"{source}: bad coefficient column {col!r}") from exc
    records = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3 + len(indices):
            raise DataFormatError(
                f"{source}:{lineno}: expected {3 + len(indices)} fields, got {len(row)}"
            )
        try:
            t = float(row[0])
            norm_sq = float(row[2])
            lambdas = {
                idx: float(cell) for idx, cell in zip(indices, row[3:]) if cell.strip()
            }
        except ValueError as exc:
            raise DataFormatError(f"{source}:{lineno}: {exc}") from exc
        records.append(
            MaassFormRecord(
                t=t,
                parity=row[1].strip(),
                norm_sq=norm_sq,
                lambdas=lambdas,
                source=source,
            )
        )
    return _finish(records, source)


def _parse_json(text: str, source: str) -> list:
    try:
        obj = json.loads(text) if text.strip() else {"normalization": _NORMALIZATION, "forms": []}
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{source}: invalid JSON: {exc}") from exc
    if obj.get("normalization") != _NORMALIZATION:
        raise DataFormatError(
            f"{source}: unsupported normalization {obj.get('normalization')!r}"
        )
    records = []
    for i, item in enumerate(obj.get("forms", [])):
        try:
            records.append(
                MaassFormRecord(
                    t=float(item["t"]),
                    parity=item["parity"],
                    norm_sq=float(item["norm_sq"]),
                    lambdas={int(k): float(v) for k, v in item.get("lambdas", {}).items()},
                    source=source,
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{source}: form #{i}: {exc}") from exc
    return _finish(records, source)


def serialize_records(records: list, format: str = "csv") -> str:
    if format == "json":
        return json.dumps(
            {
                "normalization": _NORMALIZATION,
                "forms": [
                    {
                        "t": rec.t,
                        "parity": rec.parity,
                        "norm_sq": rec.norm_sq,
                        "lambdas": {str(k): v for k, v in sorted(rec.lambdas.items())},
                    }
                    for rec in records
                ],
            },
            indent=1,
        )
    if format != "csv":
        raise DataFormatError(f"unknown format {format!r}")
    indices = sorted({k for rec in records for k in rec.lambdas})
    buf = io.StringIO()
    buf.write(f"# normalization: {_NORMALIZATION}\n")
    wr = csv.writer(buf, lineterminator="\n")
    wr.writerow(["t", "parity", "norm_sq"] + [f"lambda_{i}" for i in indices])
    for rec in records:
        wr.writerow(
            [repr(rec.t), rec.parity, repr(rec.norm_sq)]
            + [repr(rec.lambdas[i]) if i in rec.lambdas else "" for i in indices]
        )
    return buf.getvalue()


def _untempered_prime(rec: MaassFormRecord, primes) -> int | None:
    """The first p of primes with |lambda_p| > 2 p^{7/64} + 1e-6, outside
    the Kim-Sarnak range, or None; a missing lambda_p passes."""
    for p in primes:
        lam = rec.lambdas.get(p)
        if lam is not None and abs(lam) > 2.0 * p ** _KIM_SARNAK + 1e-6:
            return p
    return None


def validate_records(records: list) -> dict:
    """Per-record invariant report plus a quadratic count-fit residual.

    The multiplicativity check passes |lambda_2 lambda_3 - lambda_6| up to
    _COEFF_TOL = 1e-6."""
    if not records:
        raise DataFormatError("validation needs a nonempty record list")
    per_record = []
    for rec in records:
        checks = {}
        checks["lambda_1_normalized"] = rec.lambdas.get(1, 1.0) == 1.0
        checks["tempered_range"] = _untempered_prime(rec, (2, 3, 5, 7, 11, 13)) is None
        if all(k in rec.lambdas for k in (2, 3, 6)):
            checks["multiplicative_2_3_6"] = (
                abs(rec.lambdas[2] * rec.lambdas[3] - rec.lambdas[6]) <= _COEFF_TOL
            )
        checks["t_nonnegative"] = rec.t >= 0.0
        per_record.append({"t": rec.t, "checks": checks, "pass": all(checks.values())})
    # least-squares a*t^2 fit to the counting function, residual reported for
    # spectral tail budgeting
    ts = np.array([rec.t for rec in records])
    counts = np.arange(1, len(records) + 1, dtype=float)
    denom = float(np.sum(ts ** 4))
    a_fit = float(np.sum(counts * ts ** 2) / denom) if denom > 0 else 0.0
    resid = float(np.sqrt(np.mean((counts - a_fit * ts ** 2) ** 2)))
    return {
        "records": per_record,
        "all_pass": all(r["pass"] for r in per_record),
        "count_fit_coefficient": a_fit,
        "count_fit_rms_residual": resid,
    }
