"""Each self-test check that ``--fault-inject-prune`` leaves passing must
still catch a fault planted in the code it guards."""

import dataclasses
import functools

import numpy as np
import pytest

from vtprune import backbone as bb
from vtprune import checks, numerics, vip
from vtprune import training as tr


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
