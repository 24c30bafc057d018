"""Fit a Gaussian-copula scenario model and expand a small panel.

Sixteen historical flood scenarios over twelve substations is far too
few to optimize against directly. The generator keeps each substation's
empirical height distribution exactly and couples them through a latent
Gaussian vector whose correlations are matched so the *output*
correlations hit the training ones.

    python3 demos/scenario_generation.py
"""
import math

import numpy as np

from nortagrid.norta import ScenarioSet, estimate_inputs, fit, sample
from nortagrid.stats import emd

K, DIM = 16, 12

# synthetic "history": AR(1) latent field, lognormal-ish integer heights
rng = np.random.default_rng(3)
eps = rng.standard_normal((K, DIM))
z = np.empty((K, DIM))
z[:, 0] = eps[:, 0]
for j in range(1, DIM):
    z[:, j] = 0.7 * z[:, j - 1] + math.sqrt(1 - 0.49) * eps[:, j]
train = ScenarioSet.with_uniform_probs(np.clip(np.floor(np.exp(1.0 + 0.6 * z)), 0, 12))

model = fit(train)
rep = model.report
print(f"fitted {train.dim} marginals, {rep.residual.size} correlation pairs")
print(f"  clamped (Frechet-infeasible) pairs : {rep.clamp_count}")
print(f"  worst achievable-correlation gap   : {rep.max_residual:.4f}")
print(f"  PSD repair distance (Frobenius)    : {rep.repair_distance:.2e}")
print(f"  Cholesky jitter                    : {rep.chol_jitter:.1e}")
print()

synth = sample(model, 2000, seed=42)
print(f"sampled {synth.n_scenarios} synthetic scenarios")

# marginals: support can only come from the training columns
for j in (0, 5, 11):
    assert set(np.unique(synth.scenarios[:, j])) <= set(train.scenarios[:, j])
marg_t, sig_t = estimate_inputs(train)
marg_s, sig_s = estimate_inputs(synth)
dists = [emd(marg_t[j], marg_s[j]) for j in range(DIM)]
print(f"  per-column EMD: mean {np.mean(dists):.4f}, max {np.max(dists):.4f}")

iu = np.triu_indices(DIM, k=1)
corr_err = np.abs(sig_t[iu] - sig_s[iu])
print(f"  correlation error: mean {corr_err.mean():.4f}, max {corr_err.max():.4f}")
print()

print("column 0 height law, training vs synthetic:")
vals = np.unique(train.scenarios[:, 0])
for v in vals:
    p_t = np.mean(train.scenarios[:, 0] == v)
    p_s = np.mean(synth.scenarios[:, 0] == v)
    bar = "#" * int(round(40 * p_s))
    print(f"  h={int(v):2d}  train {p_t:.3f}  synth {p_s:.3f}  {bar}")
