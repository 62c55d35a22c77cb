"""Correctness checks on every CLI call, independent of the library's own gates.

A call fails when it raises, when its exit code is not the one its verdict
implies, when the outcome differs from the recorded reference, when an
invariant of the certifier breaks, or when a witness fails the re-check
below.  The re-check uses only numpy and the benchmark's own battery copy:
symbols are expanded binomially here, and polynomial roots come from
numpy's companion-matrix solver, not from the library's Aberth iteration.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Domain coefficients (a, b, c, d): the region is Im((az+b) * conj(cz+d)) > 0.
PRESETS = {
    "upper-half-plane": (1, 0, 0, 1),
    "lower-half-plane": (-1, 0, 0, 1),
    "unit-disk": (-1j, 1j, 1, 1),
}
BAND_TOL = 1e-9          # the CLI's default --tol
SYMBOL_ZERO_TOL = 1e-8   # |F(z, w)| against the absolute-value evaluation of F
ROOT_RESIDUAL_TOL = 1e-8
APPLY_RTOL = 1e-9
GCD_ATOL = 1e-6

PASS_VERDICTS = ("evidence-consistent", "certified-rank-one")
CLASS_TAGS = {"interior": {"interior"}, "closure": {"interior", "boundary"},
              "exterior": {"exterior"}, "complement": {"exterior", "boundary"}}


def tag(domain: str, z: complex) -> str:
    a, b, c, d = (complex(v) for v in PRESETS[domain])
    num, den = a * z + b, c * z + d
    side = (num * den.conjugate()).imag
    band = BAND_TOL * (abs(num) ** 2 + abs(den) ** 2) / 2.0
    if abs(side) <= band:
        return "boundary"
    return "interior" if side > 0 else "exterior"


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _coeffs(pairs) -> np.ndarray:
    return np.array([_c(p) for p in pairs], dtype=np.complex128)


def apply_operator(images: list[np.ndarray], p: np.ndarray) -> np.ndarray:
    width = max([1] + [images[k].size for k in range(p.size) if p[k] != 0])
    out = np.zeros(width, dtype=np.complex128)
    for k, ck in enumerate(p):
        if ck != 0:
            out[: images[k].size] += ck * images[k]
    return out


def symbol_matrix(images: list[np.ndarray], domain: str, n: int) -> np.ndarray:
    """Coefficients F[i, j] of z**i w**j of T applied in z to the degree-n base symbol.

    The base symbol is (alpha(w) z + beta(w))**n with alpha = 2ac w + (ad+bc)
    and beta = (ad+bc) w + 2bd, expanded binomially in z.
    """
    a, b, c, d = (complex(v) for v in PRESETS[domain])
    alpha = np.array([a * d + b * c, 2 * a * c])
    beta = np.array([2 * b * d, a * d + b * c])
    rows = max(img.size for img in images[: n + 1])
    out = np.zeros((rows, n + 1), dtype=np.complex128)
    for k in range(n + 1):
        w_poly = np.array([math.comb(n, k)], dtype=np.complex128)
        for _ in range(k):
            w_poly = np.convolve(w_poly, alpha)
        for _ in range(n - k):
            w_poly = np.convolve(w_poly, beta)
        img = images[k]
        out[: img.size, :] += np.outer(img, w_poly)
    return out


def symbol_zero_errors(images, domain: str, n: int, z: complex, w: complex,
                       z_classes: set[str]) -> list[str]:
    F = symbol_matrix(images, domain, n)
    zp = z ** np.arange(F.shape[0])
    wp = w ** np.arange(F.shape[1])
    value = abs(zp @ F @ wp)
    scale = np.abs(zp) @ np.abs(F) @ np.abs(wp)
    errors = []
    if not value <= SYMBOL_ZERO_TOL * scale:
        errors.append(f"|F(z, w)| = {value:.3e} exceeds {SYMBOL_ZERO_TOL} x {scale:.3e}"
                      f" at degree {n}")
    if tag(domain, z) not in z_classes:
        errors.append(f"z = {z} is {tag(domain, z)}, not in {sorted(z_classes)}")
    if tag(domain, w) != "interior":
        errors.append(f"w = {w} is {tag(domain, w)}, not interior")
    return errors


def poly_witness_errors(images, domain: str, witness: dict, source: str,
                        target: str) -> list[str]:
    p = _coeffs(witness["p"])
    image = _coeffs(witness["image"])
    errors = []
    reapplied = apply_operator(images, p)
    width = max(reapplied.size, image.size)
    diff = np.abs(np.pad(reapplied, (0, width - reapplied.size))
                  - np.pad(image, (0, width - image.size))).max()
    if not diff <= APPLY_RTOL * max(np.abs(image).max(), 1e-300):
        errors.append(f"T p differs from the reported image by {diff:.3e}")
    if p.size > 1:
        for r in np.roots(p[::-1]):
            if tag(domain, r) not in CLASS_TAGS[source]:
                errors.append(f"input root {r} is {tag(domain, r)}, outside {source}")
    r = _c(witness["bad_root"])
    deg = image.size - 1
    residual = abs(np.polyval(image[::-1], r)) / (
        np.abs(image).max() * max(1.0, abs(r)) ** deg)
    if not residual <= ROOT_RESIDUAL_TOL:
        errors.append(f"bad root {r} has scaled image residual {residual:.3e}")
    got = tag(domain, r)
    if got != witness["bad_root_tag"]:
        errors.append(f"bad root {r} is {got}, reported {witness['bad_root_tag']}")
    if got in CLASS_TAGS[target]:
        errors.append(f"bad root {r} is {got}, inside the target class {target}")
    return errors


def outcome(case, doc: dict) -> dict:
    """The part of a report the reference table pins."""
    if case.command == "certify":
        return {"verdict": doc["verdict"], "route": doc["route"]}
    if case.command == "falsify":
        return {"verdict": doc["verdict"]}
    return {"gcd": [[round(v, 6) + 0.0 for v in pair] for pair in doc["gcd"]]}


def fingerprint(table: dict) -> str:
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _certify_errors(images, case, doc: dict) -> list[str]:
    errors = []
    diag = doc["diagnostics"]
    witness = doc["witness"]
    is_open = case.flags[case.flags.index("--class") + 1] == "open"
    if is_open and doc["verdict"] in PASS_VERDICTS \
            and diag.get("closed_verdict") == "falsified":
        errors.append("open class passes while the closed class is falsified")
    if is_open and "routes" in diag and not diag["routes"]["agree"]:
        errors.append(f"open-class routes disagree: {diag['routes']}")
    scans = [("symbols_closed", {"interior"}),
             ("symbols_closure", {"interior", "boundary"})]
    for key, z_classes in scans:
        for entry in diag.get(key, ()):
            if entry["status"] == "zero-found":
                errors += symbol_zero_errors(images, case.domain, entry["n"],
                                             _c(entry["z"]), _c(entry["w"]),
                                             z_classes)
    if doc["verdict"] == "falsified":
        if witness is None:
            errors.append("falsified without a witness")
        elif witness["type"] == "symbol-zero":
            found = [e for e in diag.get("symbols_closed", ())
                     if e["status"] == "zero-found"]
            if not found or _c(found[0]["z"]) != _c(witness["z"]) \
                    or _c(found[0]["w"]) != _c(witness["w"]):
                errors.append("symbol-zero witness is not the closed scan's zero")
        else:
            errors += poly_witness_errors(images, case.domain, witness,
                                          "exterior", "exterior")
    elif witness is not None:
        errors.append(f"{doc['verdict']} report carries a witness")
    return errors


def call_errors(images, case, doc: dict | None, exit_code: int | None,
                expected: dict | None) -> list[str]:
    """Every reason this call counts as failed; empty when it is correct."""
    if doc is None:
        return [f"no JSON report (exit code {exit_code})"]
    errors = []
    got = outcome(case, doc)
    if expected is None:
        errors.append("case missing from the reference table")
    elif case.command == "gcd-image":
        exp = _coeffs(expected["gcd"])
        obs = _coeffs(doc["gcd"])
        if exp.size != obs.size or np.abs(exp - obs).max() > GCD_ATOL:
            errors.append(f"gcd {doc['gcd']} differs from the reference {expected['gcd']}")
    elif got != expected:
        errors.append(f"outcome {got} differs from the reference {expected}")
    verdict = doc.get("verdict")
    want_exit = 1 if verdict == "falsified" else 0
    if exit_code != want_exit:
        errors.append(f"exit code {exit_code}, expected {want_exit} for {verdict}")
    if case.command == "certify":
        errors += _certify_errors(images, case, doc)
    elif case.command == "falsify":
        witness = doc["witness"]
        if verdict == "falsified":
            if witness is None:
                errors.append("falsified without a witness")
            else:
                errors += poly_witness_errors(images, case.domain, witness,
                                              doc["source"], doc["target"])
        elif witness is not None:
            errors.append("no-witness verdict carries a witness")
    elif not doc["stable_under_doubling"]:
        errors.append("image gcd is not stable under doubling the samples")
    return errors
