"""Each self-test check that ``--fault-inject-prune`` leaves passing must
still catch a fault planted in the code it guards."""

import dataclasses
import functools

import numpy as np
import pytest

from vtprune import backbone as bb
from vtprune import checks, numerics, vip
from vtprune import prune_engine as pe
from vtprune import training as tr
from vtprune.cli import app


def _one_ulp_off(real, a, b):
    out = real(a, b)
    out.flat[-1] = np.nextafter(out.flat[-1], np.inf)
    return out


def _drop_last_kept(real, *args):
    sel = real(*args)
    return dataclasses.replace(sel, keep=sel.keep[:-1])


def _scaled_grad(real, *args):
    loss, parts, grads = real(*args)
    return loss, parts, {name: 1.01 * g for name, g in grads.items()}


def _glimpse_leaks(real, params, hidden, *args, glimpse=None, glimpse_pos=None, **kwargs):
    if glimpse is not None:
        hidden = hidden.copy()
        hidden[glimpse_pos - 1] += 1e-6 * hidden[glimpse_pos]
    return real(params, hidden, *args, glimpse=glimpse, glimpse_pos=glimpse_pos, **kwargs)


def _phase_two_out_of_order(real, params, x, positions, visible, from_layer, *args, **kwargs):
    # the layers after pruning run over every row but the last in reverse
    if from_layer > 1:
        order = np.r_[x.shape[0] - 2 : -1 : -1, x.shape[0] - 1]
        x, positions = x[order], positions[order]
    return real(params, x, positions, visible, from_layer, *args, **kwargs)


@pytest.mark.parametrize("check,owner,attr,fault", [
    ("matmul_oracle", numerics, "matmul", _one_ulp_off),
    ("selection_cap_properties", vip, "select_tokens", _drop_last_kept),
    ("gradient_check", tr, "grad", _scaled_grad),
    ("non_perturbation", bb, "prefill_layers", _glimpse_leaks),
])
def test_selftest_check_catches_planted_fault(monkeypatch, check, owner, attr, fault):
    monkeypatch.setattr(owner, attr, functools.partial(fault, getattr(owner, attr)))
    with pytest.raises(AssertionError):
        dict(checks.SELFTEST)[check]()


@pytest.mark.parametrize("keep", [[1, 5, 9], [9, 1, 5], [1, 5, 5, 9]])
def test_oracle_and_kv_accounting_take_keep_as_a_set(keep):
    # glimpse_prune_prefill keeps each forced token once, in index order;
    # the oracle and the cache count must read the same set. Pruning below
    # the top two layers makes the oracle's row order matter.
    model, image, question = checks._toy(0, 40, K=2)
    checks.oracle_equivalence(model, image, question, 2, keep=keep)
    checks.kv_accounting(model, image, question, keep=keep)


def test_selftest_catches_oracle_rows_out_of_order(monkeypatch, capsys):
    # Pruning after layer 3 of 4 leaves the oracle one layer after the
    # prune, which reads only its last row: that row sees every other row,
    # so their order moves its logits by rounding alone. The self-test's
    # toys prune after layer 2.
    monkeypatch.setattr(pe, "dense_layers",
                        functools.partial(_phase_two_out_of_order, pe.dense_layers))
    assert app(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL oracle_equivalence"]
    assert lines[-1] == "selftest=7/8"
