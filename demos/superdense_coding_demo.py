"""Walk through the multi-qubit superdense coding protocol.

Alice and Bob share an n-qubit maximally entangled state. Alice encodes n
classical bits on her n-1 qubits with a product of Pauli operators, sends
them to Bob, and Bob measures in the entangled basis. With no noise every
codeword decodes perfectly; noise on the shared qubit blurs the decoding
distribution and lowers the fidelity.

Run: python3 demos/superdense_coding_demo.py
"""

import numpy as np

from ghzsdc import (
    Codeword,
    NoiseKind,
    NoiseSpec,
    encode_usdc,
    run_protocol,
)


def main():
    n = 3
    print(f"=== noiseless protocol, n = {n} ===")
    clean = NoiseSpec(NoiseKind.BIT_FLIP, 0.0)
    for value in range(2 ** n):
        result = run_protocol(Codeword(n, value), clean)
        decoded = int(np.argmax(result.decode_distribution))
        print(f"  sent {value:0{n}b}  decoded index {decoded}  "
              f"fidelity {result.post_fidelity:.6f}")

    print()
    print("=== encoding operators for two codewords ===")
    for value in (0b011, 0b101):
        op = encode_usdc(Codeword(3, value))
        print(f"  codeword {value:03b}:")
        for row in op.matrix:
            print("   ", " ".join(f"{z.real:+.0f}{z.imag:+.0f}j" for z in row))

    print()
    print("=== bit-flip noise on the distributed qubit ===")
    for p in (0.0, 0.1, 0.2, 0.3):
        spec = NoiseSpec(NoiseKind.BIT_FLIP, p)
        result = run_protocol(Codeword(n, 0b101), spec)
        top = np.sort(result.decode_distribution)[::-1][:2]
        print(f"  p = {p:.1f}  fidelity {result.post_fidelity:.4f}  "
              f"top decode weights {top[0]:.3f}, {top[1]:.3f}")


if __name__ == "__main__":
    main()
