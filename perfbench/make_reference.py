"""Write the reference answers of the exact workloads to ``reference/``.

    python3 perfbench/make_reference.py

The benchmark compares every answer with these files, so a later change to
the library is checked against fixed data rather than against itself.
Before writing, every answer is validated: against the mathematical
identities the workload exercises (power identity, ladder class equal to
the direct class wherever the latter is defined, closed-form size-3 class
equal to the direct one with matching signature, chain spectrum shift),
and against sympy for every monodromy char poly and cyclotomic split.
"""

import benchenv

benchenv.prepare()

import json  # noqa: E402
from fractions import Fraction  # noqa: E402

from spectral_stokes import chain, hor, lowdim, matrices as mx, orbit, polycore  # noqa: E402
from spectral_stokes import seifert as sf  # noqa: E402
from spectral_stokes.errors import NotReducible, Unclassified  # noqa: E402

import workloads as W  # noqa: E402


def require(ok: bool, key: str):
    if not ok:
        raise RuntimeError(f"reference answer for {key} fails its validation")


def write(name: str, data: dict):
    W.REFERENCE_DIR.mkdir(exist_ok=True)
    path = W.REFERENCE_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        items = sorted(data.items())
        for i, (k, v) in enumerate(items):
            sep = "," if i + 1 < len(items) else ""
            fh.write(f"{json.dumps(k)}:{json.dumps(v, separators=(',', ':'))}{sep}\n")
        fh.write("}\n")
    print(f"{path}: {len(data)} entries")


def family():
    out = {}
    pool = []
    for key, n, k, mults, p in W.Family().inputs():
        M = hor.poly_to_matrix(p, k)
        ok, _ = hor.verify_power_identity(M)
        require(ok, key)
        ladder = W.enc_types(sf.class_from_spp(hor.recipe_spectral_pairs(hor.matrix_to_scal(M)), 1))
        try:
            direct = W.enc_types(sf.classify(sf.SeifertPair.from_triangular(M.S)))
            require(W.types_agree(direct, ladder), key)
            classified = True
        except Unclassified:
            classified = False
        cp = mx.char_poly_exact(mx.solve_unit_upper(M.S, M.S.T.copy()))
        require([Fraction(c) for c in cp.coeffs] == W.sympy_charpoly(M.S), key)
        got, rem = polycore.factor_cyclotomic(p)
        require(got == mults and rem.degree == 0, key)
        require(W.sympy_cyclotomic_mults(p.coeffs) == mults, key)
        spectrum = sorted(hor.recipe_spectrum(hor.matrix_to_scal(M)), key=float)
        out[key] = {"ladder": ladder, "classified": classified,
                    "charpoly": [W.enc_number(c) for c in cp.coeffs],
                    "spectrum": " ".join(W.enc_number(a) for a in spectrum)}
        pool.append((key, M))
    report = orbit.conjecture16_check(pool)
    xs = [(key,) for key, _ in pool]
    require(W.Family().check_pass(xs, (len(report.groups), len(report.violations)), out),
            "conjecture16_check over all members")
    write("family", out)


def grid3():
    index, out = {}, {}
    for key, a in W.Grid3().inputs():
        c = lowdim.classify3(a)
        S = lowdim.s3_matrix(a)
        types = W.enc_types(c.types)
        direct = sf.classify(sf.SeifertPair.from_triangular(S))
        require(W.types_agree(W.enc_types(direct), types), key)
        sig = list(mx.signature_exact(S + S.T))
        require(sig == [sum(v) for v in zip(*(sf.type_signature(t) for t in c.types))], key)
        cp = [Fraction(x) for x in mx.char_poly_exact(mx.solve_unit_upper(S, S.T.copy())).coeffs]
        closed_cp = [Fraction(x) for x in lowdim.char_poly3(a).coeffs]
        require(cp == W.sympy_charpoly(S) == closed_cp, key)
        ans = {"stratum": c.stratum.value, "types": types, "signature": sig}
        akey = json.dumps(ans, sort_keys=True)
        if akey not in index:
            index[akey] = f"#{len(index)}"
            out[index[akey]] = ans
        out[key] = index[akey]
    write("grid3", out)


def chain_ref():
    out = {}
    for key, kind, a in W.chain_inputs():
        if kind == "grid":
            require(chain.verify_spectrum_shift(a), key)
            out[key] = True
            continue
        try:
            susp, shift, red = chain.reduce_chain(a)
        except NotReducible:
            out[key] = W.NOT_REDUCIBLE
            continue
        lhs = sorted(chain.qh_spectrum(chain.ChainSing(red).w), key=float)
        rhs = sorted((s + shift for s in chain.qh_spectrum(chain.ChainSing(a).w)), key=float)
        require(lhs == rhs and chain.verify_spectrum_shift(a)
                and chain.verify_spectrum_shift(red), key)
        out[key] = [susp, W.enc_number(shift), list(red)]
    write("chain", out)


if __name__ == "__main__":
    family()
    grid3()
    chain_ref()
