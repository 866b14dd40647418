from ftprep.pauli import PauliOperator


def P(s: str) -> PauliOperator:
    return PauliOperator.from_string(s)


def test_weight_and_support():
    op = P("XIZYI")
    assert op.weight == 3
    assert op.support == 0b01101


def test_string_round_trip():
    for s in ("IXYZ", "XXXX", "IIII", "ZYXI"):
        assert P(s).to_string() == s


def test_compose_is_xor():
    assert P("XZ").compose(P("YY")) == PauliOperator(2, x=0b01 ^ 0b11, z=0b10 ^ 0b11)
