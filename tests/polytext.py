"""Polynomials written as text in the tests: ``parse`` is the inverse of
``RationalPolynomial.render`` and accepts exactly the rendered grammar,
for example ``"(1/2) w1^2 y3 + (-1) y2"``."""

from fractions import Fraction

from nilflow.ratpoly import RationalPolynomial, phase_names


def parse(text, nvars):
    index = {name: i for i, name in enumerate(phase_names(nvars))}
    terms = {}  # "(0)" is one term with coefficient 0
    for part in text.strip().split(" + "):
        tokens = part.split()
        head = tokens[0] if tokens else ""
        if not (head.startswith("(") and head.endswith(")")):
            raise ValueError("malformed term %r" % part)
        exps = [0] * nvars
        for tok in tokens[1:]:
            if "^" in tok:
                name, power = tok.split("^")
                k = int(power)
            else:
                name, k = tok, 1
            if name not in index:
                raise ValueError("unknown variable %r" % name)
            exps[index[name]] += k
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + Fraction(head[1:-1])
    return RationalPolynomial(nvars, terms)
