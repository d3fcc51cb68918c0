"""Walkthrough: odd-argument Mellin values over the negative-argument basis.

The Mellin transforms of 1/arctanh(x) and 1/(sqrt(1-x^2) arctanh(x)) at odd
integers s = 2n+1 are rational combinations of eta'(-1), eta'(-3), ... and
beta'(0), beta'(-2), ... respectively.  The coefficients are sums over the
root products prod_{j<=k} (y - j^2) resp. prod_{j<=k} (y - (2j-1)^2), whose
coefficient triangles the demo prints first.
Run:  python demos/02_odd_mellin_values.py
"""

from fractions import Fraction

from arcmellin import eta_prime_neg_symbol, phi_odd_closed_form


def root_product_row(roots):
    """Coefficients of y^0, y^1, ... in prod_r (y - r)."""
    row = [1]
    for r in roots:
        row = [a - r * b for a, b in zip([0, *row], [*row, 0])]
    return row


def main():
    print("The coefficient triangles (rows n = 0..4):")
    for n in range(5):
        row_int = root_product_row([j * j for j in range(1, n + 1)])
        row_odd = root_product_row([(2 * j - 1) ** 2 for j in range(1, n + 1)])
        print(f"  n={n}:  integer-root {row_int}   odd-root {row_odd}")

    print("\nOdd values of the plain transform, int_0^1 x^{2n}/arctanh(x) dx:")
    for n in range(1, 5):
        print(f"  s={2 * n + 1}:  {phi_odd_closed_form(1, n).latex()}")

    print("\nOdd values of the weighted transform:")
    for n in range(1, 5):
        print(f"  s={2 * n + 1}:  {phi_odd_closed_form(2, n).latex()}")

    print("\nThe leading coefficient obeys a clean law: coeff of eta'(-1) is")
    print("4/(2n+1) for every n.")
    for n in (1, 7, 25, 50):
        lead = phi_odd_closed_form(1, n).coefficient(eta_prime_neg_symbol(0))
        assert lead == Fraction(4, 2 * n + 1)
        print(f"  n={n:3d}: {lead}")


if __name__ == "__main__":
    main()
