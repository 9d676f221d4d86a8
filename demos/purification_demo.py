"""Iterated entanglement purification on noisy shared states.

Two identical noisy copies pass through bilateral CNOTs; one copy is
measured and the pair is kept only when all outcomes agree. Each round
raises fidelity and costs success probability, so the product of the two
tells you how many raw pairs one good pair consumes.

Run: python3 demos/purification_demo.py
"""

from ghzsdc import NoiseKind, NoiseSpec, distribute, ghz_fidelity, purify_iterated


def main():
    n = 3
    print(f"shared state: {n}-qubit maximally entangled pair")
    print()
    print("rounds  noise p  fidelity before  fidelity after  success prob")
    for p in (0.1, 0.2, 0.3):
        rho = distribute(n, NoiseSpec(NoiseKind.BIT_FLIP, p))
        for rounds in (1, 2, 3):
            result = purify_iterated(rho, rounds)
            print(f"  {rounds}      {p:.1f}      {ghz_fidelity(rho):.6f}      "
                  f"  {ghz_fidelity(result.kept_state):.6f}      {result.success_probability:.6f}")
        print()

    print("note: each extra round squares the copy requirement; the yield")
    print("column shows why two rounds is usually the practical limit here.")


if __name__ == "__main__":
    main()
