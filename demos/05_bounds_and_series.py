"""Walkthrough: bounds, the coupled series, and exact even-argument values.

Both transforms are pinched between elementary envelopes, satisfy a pair of
mutually recursive series identities, and take exact values at even
arguments: rational combinations of zeta(2p+3)/pi^{2p+2} for Phi_1 and of
beta(2p+2)/pi^{2p+1} for Phi_2.
Run:  python demos/05_bounds_and_series.py
"""

from mpmath import mp

from arcmellin import (
    check_asymptotic_constants,
    check_bounds,
    check_coupled,
    eval_closed_form,
    phi_even_closed_form,
    quad_phi,
)


def main():
    print("Envelope check on a grid of s:")
    report = check_bounds(s_grid=("1.1", "2", "5", "25"), prec=25)
    for cell in report.cells:
        print(f"  s={cell.params[0]:>4} {cell.params[1]}: {'ok' if cell.ok else 'VIOLATED'}")

    print("\nCoupled series at s = 4, truncation 30:")
    for cell in check_coupled(4, truncation=30, prec=25).cells:
        print(f"  {cell.params[1]}: {cell.detail}")

    print("\nExpansion constants near the pole at s = 1:")
    for cell in check_asymptotic_constants(prec=25).cells:
        if cell.params[1] == "limit-trend":
            print(f"  {cell.params[0]} |Phi(1+eps) - 1/eps - C| for eps = 1e-1..1e-6:")
            print(f"    {cell.detail}")

    print("\nEven arguments: Phi_2(4) in closed form, beside its quadrature:")
    form = phi_even_closed_form(2, 2)
    exact = eval_closed_form(form, 25)
    direct = quad_phi(2, 4, 25).value
    print(f"  Phi_2(4)     = {form.latex()}")
    print(f"  closed form  = {mp.nstr(exact, 25)}")
    print(f"  quadrature   = {mp.nstr(direct, 25)}")
    print(f"  |difference| = {mp.nstr(abs(exact - direct), 3)}")

if __name__ == "__main__":
    main()
