"""The three benchmark workloads: how each builds its inputs from the seed,
runs one pass through the public capelli API, and digests its output.

Only public names are called (`SweepConfig`, `run_sweep`,
`interpolation_polynomial`, `enumerate_hooks`), and every pass runs in a
fresh interpreter, so each pass pays the cold caches a CLI user pays.

This module imports nothing from capelli at module level: the pass script
times `import capelli` itself as part of set-up.
"""

import hashlib
import json
import random

WORKLOADS = ("pair_sweep", "borel_sweep", "poly_build")

PAIR_SWEEP = dict(pair="diag", m=2, n=2, lambda_max=2, mu_max=2)
# One Borel and many shapes, so that few `evaluate` inputs repeat.
BOREL_SWEEP = dict(
    pair="glm2n", m=2, n=2, lambda_max=11, mu_max=4, borels="4,4", map_choice="full"
)
# Negative control: the kernel-family map forced onto all 15 decreasing
# Borels. It must keep failing on exactly these cases, so an optimisation
# that hides failures cannot pass.
CONTROL_SWEEP = dict(
    pair="glm2n", m=2, n=2, lambda_max=4, mu_max=4, borels="all", map_choice="cb-forced"
)
CONTROL_CASES = 2216
CONTROL_FAILURES = 79
CONTROL_KIND = "eigenvalue"

POLY_M, POLY_N, POLY_THETA, POLY_MAX = 2, 1, (1, 2), 6


def build_inputs(workload, seed):
    """Import the library and make one pass's inputs. The sweeps are
    exhaustive, so only the order of poly_build's requests uses the seed."""
    if workload == "poly_build":
        import capelli
        from fractions import Fraction

        shapes = capelli.enumerate_hooks(POLY_M, POLY_N, POLY_MAX)
        random.Random(seed).shuffle(shapes)
        return (Fraction(*POLY_THETA), shapes)
    from capelli import verify

    spec = {
        "pair_sweep": PAIR_SWEEP,
        "borel_sweep": BOREL_SWEEP,
        "control": CONTROL_SWEEP,
    }[workload]
    return verify.SweepConfig(**spec)


def run_pass(workload, inputs):
    """One timed pass. Returns the raw output for `digest_and_units`."""
    import capelli

    if workload == "poly_build":
        theta, shapes = inputs
        return [
            (mu, capelli.interpolation_polynomial(POLY_M, POLY_N, theta, mu))
            for mu in shapes
        ]
    from capelli import verify

    return verify.run_sweep(inputs)


def _sha256(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_and_units(workload, output):
    """Digest of the deterministic part of the output, and the units of work
    it holds (sweep cases, or polynomials built)."""
    if workload == "poly_build":
        ordered = sorted(output, key=lambda pair: pair[0])
        return _sha256([[list(mu), p.to_json_dict()] for mu, p in ordered]), len(output)
    report = output.to_json_dict()
    kept = {key: report[key] for key in ("config", "cases", "failures")}
    return _sha256(kept), report["cases"]


def control_verdict(report):
    """None when the negative control failed as expected, else the reason."""
    kinds = {failure.get("kind") for failure in report.failures}
    if (
        report.cases == CONTROL_CASES
        and len(report.failures) == CONTROL_FAILURES
        and kinds == {CONTROL_KIND}
    ):
        return None
    return (
        f"negative control: expected {CONTROL_FAILURES} {CONTROL_KIND!r} failures "
        f"in {CONTROL_CASES} cases, got {len(report.failures)} failures of kinds "
        f"{sorted(map(str, kinds))} in {report.cases} cases"
    )
