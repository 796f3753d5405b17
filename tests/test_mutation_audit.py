"""The mutation audit's enumerator, `tests/mutate.py`, on the current kernel.

The audit runs the kernel tests once per mutant, which takes tens of
minutes, so it is not part of the test run; this checks, without running
any mutant, that each mutant it would run parses and compiles, and differs
from the kernel only inside one audited function, with every line number
kept.
"""

import mutate


def test_every_mutant_of_the_kernel_compiles():
    kernel = (mutate.ROOT / mutate.KERNEL).read_text()
    found = list(mutate.mutants())
    for m in found:
        where = f"{m.function}:{m.line} {m.change}"
        assert m.source.count("\n") == kernel.count("\n"), where
        assert kernel.startswith(m.head) and kernel.endswith(m.tail), where
        assert m.text not in kernel and m.text.startswith(f"def {m.function}("), where
        compile(m.text, where, "exec")
    assert {m.operator for m in found} == set(mutate.OPERATORS)
    assert {m.function for m in found} == set(mutate.FUNCTIONS)
