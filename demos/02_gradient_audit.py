"""Audit every analytic backward pass against finite differences.

Each layer (and one tiny end-to-end encoder + pooling + loss composite)
exposes a hand-written adjoint; this script compares them against 64-bit
central differences and prints one line per check.  Equivalent to
the ``gradcheck`` CLI command but with a few seeds for variety.

Run:  python3 demos/02_gradient_audit.py
"""

from lidkit.diagnostics import run_all_checks


def main():
    for seed in (0, 1, 2):
        print(f"seed {seed}")
        for r in run_all_checks(seed=seed):
            status = "ok " if r.passed else "BAD"
            print(f"  {status} {r.name:28s} max rel err {r.max_rel_err:.3e} (tol {r.tolerance:.0e})")
        print()


if __name__ == "__main__":
    main()
