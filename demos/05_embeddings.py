"""Numeric certificates: diagonalization; and the forms they classically give.

The multiplication matrix of an element is conjugate to the diagonal matrix
of its embedding images; this script measures that residual in floating
point.  It then prints two forms that are classically products over the
embeddings (the cubic form from embedded basis differences, and quartic
subforms from adjugate rows of the embedding matrix).  The library computes
both exactly, from the integer arithmetic matrices, with no float involved:
the cubic index form from three products of basis elements, and each subform
as disc * N(x*u - y*v) on two elements u, v of the trace form's dual basis.
"""

from arithmat import BinaryForm, EssentialPair, make_field
from arithmat import element as el
from arithmat.covariants import dh_cubic_form, quartic_subform
from arithmat.forms import form_discriminant
from arithmat.numeric import EmbeddingData, diagonalization_residual
from arithmat.polyring import poly_discriminant

F = make_field(EssentialPair(2, BinaryForm([4, -2, -3, 1, 1])))
emb = EmbeddingData(F)
print("roots of the defining polynomial:")
for z in emb.roots:
    print(f"  {z:.12f}")

alpha = F.element([2, -1, 3, 4])
print("\nembedding images of alpha:", [f"{v:.6f}" for v in emb.embed(alpha)])
print("diagonalization residual:", diagonalization_residual(F, alpha))

K = make_field(EssentialPair(1, BinaryForm([1, 1, -2, -1])))
out = dh_cubic_form(K)
print("\ncubic reconstruction from embedded basis differences:")
print("  field disc:", K.disc, " reconstructed form:", out.text(),
      " exact disc:", form_discriminant(out))

Q = make_field(EssentialPair(1, BinaryForm([1, 1, 0, -2, -1])))
print("\nquartic subforms (adjugate rows i, j scaled by 1/disc):")
for i, j in ((3, 4), (2, 4), (2, 3)):
    form, claimed = quartic_subform(Q, i, j)
    comp = ({2, 3, 4} - {i, j}).pop()
    elt_disc = poly_discriminant(el.char_poly(Q, Q.basis_element(comp - 1)))
    print(f"  rows ({i},{j}): form {form.text():>18}  disc {form_discriminant(form):>6}"
          f"  = disc of basis element {comp - 1} ({elt_disc})")
