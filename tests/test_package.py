import simulbench


def test_public_names_resolve():
    missing = [name for name in simulbench.__all__
               if not hasattr(simulbench, name)]
    assert missing == []
    assert len(set(simulbench.__all__)) == len(simulbench.__all__)
