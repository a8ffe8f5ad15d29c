"""Deterministic sequence generators for the concentration experiments.

Every generator is a pure function of its parameters and a seed, so repeated
builds are byte-identical, manifests included.  Four families are covered:
concentrating ramp ("moser") sequences, translated or in dilation form; the
equal-energy disjoint-bump counterexample built exactly in the PL radial
calculus; plain shrinking-bump vanishing sequences; and synthetic
superpositions of planted dislocated profiles plus high-angular-frequency
noise for closed-loop extractor scoring.  `build_sequence` and its spec alone
decide what valid input is: disc kinds need a grid, the counterexample takes
none, planted profiles get unit energy, indices obey `disc._integer`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import disc
from .functional import _default_grid, _moser_family
from .profiles import FunctionSequence, ProfileTerm, _groups, orthogonality_check
from .radial import (
    RadialProfile,
    gauge_apply,
    grad_norm,
    moser_annular,
    profile_from_dict,
    profile_to_dict,
    scale,
)

__all__ = [
    "GeneratorSpec",
    "default_counterexample_bump",
    "moser_sequence",
    "counterexample_sequence",
    "vanishing_sequence",
    "synthetic_superposition",
    "build_sequence",
    "save_sequence",
    "load_sequence",
]

_KINDS = ("moser", "counterexample", "vanishing", "superposition")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"malformed {self.kind} parameters: not a JSON object")
        object.__setattr__(self, "seed", disc._integer(self.seed, "seed"))
        if self.seed < 0:
            raise ValueError(f"seed: {self.seed} is negative")


# -- concentrating ramp sequences ------------------------------------------------

def moser_sequence(
    s_list,
    centers,
    grid: disc.PolarGrid | None = None,
    form: str = "translate",
) -> FunctionSequence:
    """Concentrating sequence u_k on the disc.

    form "translate": u_k is the k-th member of the translated Moser family
    (`functional._moser_family`): the translate by center_k of the unit-norm
    ramp/plateau profile with exponent log(1/s_k), annular off the origin so
    that the translate fits in the disc exactly.  form "dilate" uses integer
    dilations (round(log(1/s_k)), 0) of the unit-exponent profile and
    requires all centers at the origin.  The default grid is 512 x 128.
    """
    rows, extent = _moser_family(s_list, centers)
    if any(b[0] >= a[0] for a, b in zip(rows, rows[1:])):
        raise ValueError("concentration parameters must decrease")
    if form not in ("translate", "dilate"):
        raise ValueError(f"unknown form {form!r}")
    if form == "dilate" and any(z != 0 for _s, z, _L, _prof in rows):
        raise ValueError("dilation form concentrates at the origin only")
    grid = grid or _default_grid(128, extent)
    unit = moser_annular(1.0)
    members = [disc.inflate(prof, disc.DislocationParam(1, z), grid) if form == "translate"
               else disc.inflate(unit, disc.DislocationParam(max(1, round(L)), 0.0), grid)
               for _s, z, L, prof in rows]
    return FunctionSequence(members, range(1, len(members) + 1))


# -- disjoint-bump counterexample -------------------------------------------------

def default_counterexample_bump() -> RadialProfile:
    """PL tent on t in (2, 3) with peak 1 at t = 2.5.

    A tent rather than a mollified bump: the verified conclusions use only
    first derivatives and supports, and the tent is exact in the PL calculus.
    """
    return RadialProfile([0.0, 2.0, 2.5, 3.0], [0.0, 0.0, 1.0, 0.0])


def counterexample_sequence(
    k_max: int, bump: RadialProfile | None = None
) -> FunctionSequence:
    """w_k = k^{-1/2} sum_{j=1..k} of the bump dilated by 2^j, exactly in PL form.

    The j-th summand occupies t in (2, 3) / 2^j, so the supports are pairwise
    disjoint and the gradient energy of w_k equals that of the bump for every
    k; the Hardy-weighted integral int (w_k/t)^2 dt is likewise constant.
    """
    if k_max < 1:
        raise ValueError("need at least one member")
    if bump is None:
        bump = default_counterexample_bump()
    if bump.is_zero():
        raise ValueError("bump must be nontrivial")
    bad = (bump.values != 0.0) & ((bump.nodes < 2.0) | (bump.nodes > 3.0))
    if np.any(bad) or bump.plateau != 0.0:
        raise ValueError("bump support violation: need support inside t in (2, 3)")
    terms = [gauge_apply(bump, 2.0**j) for j in range(1, k_max + 1)]
    members = []
    for k in range(1, k_max + 1):
        nodes = terms[0].nodes
        for t in terms[1:k]:
            nodes = np.union1d(nodes, t.nodes)
        vals = np.zeros_like(nodes)
        for t in terms[:k]:
            vals += t.value_at(nodes)
        members.append(
            RadialProfile(nodes, vals / math.sqrt(k))
        )
    return FunctionSequence(members, range(1, k_max + 1))


# -- vanishing sequences -----------------------------------------------------------

def vanishing_sequence(k_list, bump2d: disc.DiscFunction) -> FunctionSequence:
    """Members w(k x): the bump shrunk by k, sampled on the bump's own grid.

    Dirichlet energy is invariant under the shrinking in the continuum, so
    the discrete energies stay constant up to grid tolerance while the
    exponential-class quasinorm decays.
    """
    ks = [disc._integer(k, "k_values") for k in k_list]
    if any(k < 1 for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("indices must be increasing positive integers")
    if bump2d.support_radius >= 1.0:
        raise ValueError("bump must be compactly supported inside the disc")
    grid = bump2d.grid
    radii = disc._ring_radii(grid)
    thetas = disc._thetas(grid)
    nodes = (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
    members = []
    for k in ks:
        rings = bump2d.interpolate(k * nodes).reshape(grid.n_r, grid.n_theta)
        rings[-1, :] = 0.0
        members.append(
            disc.DiscFunction(
                grid,
                bump2d.center,
                rings,
                support_radius=min(1.0, bump2d.support_radius / k),
            )
        )
    return FunctionSequence(members, ks)


# -- synthetic superpositions -------------------------------------------------------

def _noise_member(grid, rng, k: int, noise_energy: float) -> disc.DiscFunction:
    prof = RadialProfile([0.0, 0.8, 1.3, 2.1, 2.6], [0.0, 0.0, 1.0, 0.0, 0.0])
    mode = min(grid.n_theta // 3, 24 + 6 * k)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    noisy = disc.angular_mode(prof, grid, mode, phase)
    e = disc.energy(noisy)
    if e == 0.0:
        raise ValueError(
            f"the noise profile lives on {prof.nodes[1]} < t < {prof.nodes[-1]} and "
            f"vanishes on a grid with s_max {grid.s_max}"
        )
    return disc.scale_disc(noisy, math.sqrt(noise_energy / e))


def _accumulate(acc, bubble):
    return bubble if acc is None else disc.add(acc, bubble)


def synthetic_superposition(
    terms,
    noise_energy: float,
    seed: int,
    grid: disc.PolarGrid,
    k_list=None,
) -> tuple[FunctionSequence, dict]:
    """Sum of planted dislocated profiles plus high-frequency angular noise.

    Terms must be pairwise separated (distinct centers or diverging scales);
    colliding terms are rejected.  The returned manifest records the planted
    ground truth for extractor scoring.
    """
    terms, seed = list(terms), GeneratorSpec("superposition", seed=seed).seed  # the spec's rule
    noise_energy = disc._real(noise_energy, "noise_energy")
    if not 0.0 <= noise_energy < math.inf:
        raise ValueError(f"noise energy must be finite and nonnegative, got {noise_energy!r}")
    for i in range(len(terms)):
        for m in range(i + 1, len(terms)):
            if not orthogonality_check(terms[i], terms[m]):
                raise ValueError(
                    f"terms {i} and {m} collide: tracks are not asymptotically separated"
                )
    n_k = len(terms[0].j_track) if terms else len(list(k_list or []))
    if k_list is None:
        k_list = range(1, n_k + 1)
    ks = [disc._integer(k, "k_list") for k in k_list]
    if terms and any(len(t.j_track) != len(ks) for t in terms):
        raise ValueError("term tracks must cover the index list")
    # per term one field per zeta, one bubble per (j, zeta); summed in term order, then noise
    members = [None] * len(ks)
    for t in terms:
        for zeta, by_j in _groups(t).items():
            for group, bubble in zip(by_j.values(), disc._inflated(t.w, zeta, list(by_j), grid)):
                for idx in group:
                    members[idx] = _accumulate(members[idx], bubble)
    rng = np.random.default_rng(seed)
    for idx, k in enumerate(ks):
        if noise_energy > 0:
            members[idx] = _accumulate(members[idx], _noise_member(grid, rng, k, noise_energy))
        if members[idx] is None:
            members[idx] = disc.DiscFunction(grid, 0.0, np.zeros((grid.n_r, grid.n_theta)))
    manifest = {
        "generator": "superposition",
        "seed": seed,
        "noise_energy": noise_energy,
        "k_list": ks,
        "planted_terms": [t.to_dict() for t in terms],
    }
    return FunctionSequence(members, ks), manifest


# -- spec-driven dispatch and manifest IO --------------------------------------------

def build_sequence(spec: GeneratorSpec) -> tuple[FunctionSequence, dict]:
    """Construct the sequence described by a generator spec; returns manifest too."""
    p = dict(spec.params)
    malformed = f"malformed {spec.kind} parameters: "
    try:
        if spec.kind != "counterexample":
            g = p["grid"]
            grid = disc._parse_grid(
                g["n_r"], g["n_theta"], g.get("s_max", 12.0), g.get("spacing", "geometric")
            )
        elif "grid" in p:
            raise ValueError("counterexample members are radial profiles and take no grid")
        if spec.kind == "moser":
            try:
                s_values = [disc._real(s, f"s_values[{i}]") for i, s in enumerate(p["s_values"])]
                centers = [disc._point(z, f"centers[{i}]") for i, z in enumerate(p["centers"])]
            except ValueError as exc:
                raise ValueError(f"{malformed}{exc}") from exc
            seq = moser_sequence(s_values, centers, grid=grid, form=p.get("form", "translate"))
            params = {k: v for k, v in p.items() if k != "grid"}
            manifest = {"generator": "moser", "params": params}
        elif spec.kind == "counterexample":
            bump = profile_from_dict(p["bump"]) if p.get("bump") else None
            k_max = disc._integer(p["k_max"], "k_max")
            seq = counterexample_sequence(k_max, bump)
            manifest = {"generator": "counterexample", "k_max": k_max}
        elif spec.kind == "vanishing":
            prof = profile_from_dict(p["bump_profile"])
            bump2d = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
            seq = vanishing_sequence(p["k_values"], bump2d)
            manifest = {"generator": "vanishing", "k_values": list(seq.k_list)}
        else:
            terms = p.get("terms", [])
            if not isinstance(terms, list):
                raise TypeError("'terms' is not a list")
            terms = [ProfileTerm.from_dict(t) for t in terms]
            norms = [grad_norm(t.w) for t in terms]
            if 0.0 in norms:
                raise ValueError(f"superposition term {norms.index(0.0)}: the profile has zero energy")
            terms = [ProfileTerm(scale(t.w, 1.0 / n), t.j_track, t.zeta_track)
                     for t, n in zip(terms, norms)]
            try:
                noise_energy = disc._real(p.get("noise_energy", 0.0), "noise_energy")
            except ValueError as exc:
                raise ValueError(f"{malformed}{exc}") from exc
            seq, manifest = synthetic_superposition(
                terms, noise_energy, spec.seed, grid, k_list=p.get("k_list"),
            )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"{malformed}{exc}") from exc
    manifest["seed"] = spec.seed
    return seq, manifest


def save_sequence(seq: FunctionSequence, out_dir: str, manifest: dict) -> str:
    """Write member files plus a manifest; returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    is_disc = seq.is_disc()
    files = []
    for k, member in zip(seq.k_list, seq.members):
        name = f"member_{k:04d}.json"
        payload = disc.disc_to_dict(member) if is_disc else profile_to_dict(member)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            # one-shot dumps runs the C encoder; the bytes equal json.dump's
            fh.write(json.dumps(payload, sort_keys=True))
        files.append(name)
    doc = dict(manifest)
    doc["member_kind"] = "disc" if is_disc else "radial"
    doc["k_list"] = list(seq.k_list)
    doc["members"] = files
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def load_sequence(manifest_path: str) -> FunctionSequence:
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        names, k_list = doc["members"], doc["k_list"]
        if not isinstance(k_list, list):
            raise TypeError("'k_list' is not a list")
        k_list = [disc._integer(k, "k_list") for k in k_list]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed sequence manifest: {exc}") from exc
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError("malformed sequence manifest: 'members' is not a list of file names")
    members = []
    for name in names:
        with open(os.path.join(base, name), encoding="utf-8") as fh:
            rec = json.load(fh)
        if doc.get("member_kind") == "disc":
            members.append(disc.disc_from_dict(rec))
        else:
            members.append(profile_from_dict(rec))
    return FunctionSequence(members, k_list)
