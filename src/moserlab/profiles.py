"""Constructive profile extraction from bounded sequences on the disc.

The extractor iterates: detect the strongest concentration candidate on the
tail member, track its (scale, center) across the sequence, approximate the
profile by angular averaging of the deflated members (profiles of diverging
scales are radial, and the angular mean is an orthogonal projection in the
Dirichlet form), average the last few deflations as a finite stand-in for
the weak limit, subtract the synthesized term from every member, and repeat
until the remainder is small in the working exponential-class quasinorm or a
term cap is reached.

One placement step, `_place_term`, fits and subtracts for both passes: it
fits a term from each starting (scale, center) and keeps, among the terms
that fit the input energy budget, the one whose subtraction leaves the least
tail energy, ties broken by smaller scale, then lexicographic center, then
the whole track.  The greedy pass starts it from every detection scoring at
least half the best one; two consecutive increases of the tail remainder
energy abort the run with diagnostics.  A refine sweep starts it from a
term's last (scale, center) on the members cleaned of every other term.

The members carry one running residual: the chosen term's bubbles are
subtracted once (the fit's tail bubble, already subtracted to rank it, is
reused), and a refine sweep adds a term's bubbles back to get the cleaned
members, which become the residual if the refit is accepted.  Nothing is
rebuilt from the original members.  A bubble depends only on the term's
(scale, center) at an index, and a track repeats few of them, so both the
subtraction and the add-back build each bubble once per distinct (j, zeta)
group and apply it to every member of the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import disc
from .functional import tail_decayed
from .radial import RadialProfile, gauge_apply, grad_norm, sphere_area
from .radial import profile_from_dict, profile_to_dict
from .rearrange import expl2_disc

__all__ = [
    "FunctionSequence",
    "ProfileTerm",
    "Decomposition",
    "ExtractionDiverged",
    "extract",
    "orthogonality_check",
    "LedgerReport",
    "energy_ledger",
    "DWeakReport",
    "dweak_test",
]


class ExtractionDiverged(RuntimeError):
    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


_GRAD_NORM_BOUND = 10.0


@dataclass(frozen=True)
class FunctionSequence:
    """Indexed sequence of disc samples or radial profiles on one grid."""

    members: tuple
    k_list: tuple
    # members' Dirichlet energies (squared gradient norms), set on validation
    energies: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "k_list", tuple(int(k) for k in self.k_list))
        if not self.members:
            raise ValueError("a sequence needs at least one member")
        if len(self.members) != len(self.k_list):
            raise ValueError("one index per member required")
        if any(b <= a for a, b in zip(self.k_list, self.k_list[1:])):
            raise ValueError("indices must be strictly increasing")
        kinds = {type(m).__name__ for m in self.members}
        if len(kinds) > 1:
            raise ValueError(f"members must be homogeneous, got {kinds}")
        if self.is_disc():
            grids = {m.grid for m in self.members}
            if len(grids) > 1:
                raise ValueError("disc members must share one grid")
            energies = [disc.energy(m) for m in self.members]
            norms = [math.sqrt(e) for e in energies]
        else:
            norms = [grad_norm(m, 2) for m in self.members]
            energies = [n * n for n in norms]
        if max(norms) > _GRAD_NORM_BOUND:
            raise ValueError("sequence is not uniformly bounded in the gradient norm")
        object.__setattr__(self, "energies", tuple(energies))

    def is_disc(self) -> bool:
        return isinstance(self.members[0], disc.DiscFunction)


@dataclass(frozen=True)
class ProfileTerm:
    """Radial profile with its per-index scale/center track."""

    w: RadialProfile
    j_track: tuple
    zeta_track: tuple

    def __post_init__(self):
        object.__setattr__(self, "j_track", tuple(int(j) for j in self.j_track))
        object.__setattr__(
            self, "zeta_track", tuple(complex(z) for z in self.zeta_track)
        )
        if len(self.j_track) != len(self.zeta_track):
            raise ValueError("scale and center tracks must align")
        if any(j < 1 for j in self.j_track):
            raise ValueError("scales must be positive integers")
        if any(b < a for a, b in zip(self.j_track, self.j_track[1:])):
            raise ValueError("concentrating scale tracks must be nondecreasing")
        if any(abs(z) > 0.5 + 1e-9 for z in self.zeta_track):
            raise ValueError("centers must stay in the closed half-disc")

    def energy(self) -> float:
        return grad_norm(self.w, 2) ** 2

    def bubble(self, idx: int, grid) -> disc.DiscFunction:
        """The term on `grid` at index idx: w inflated at that (scale, center)."""
        d = disc.DislocationParam(self.j_track[idx], self.zeta_track[idx])
        return disc.inflate(self.w, d, grid)

    def to_dict(self, profile=None) -> dict:
        """JSON record of the term; `profile`, if given, names the profile's file."""
        return {
            "profile": profile_to_dict(self.w) if profile is None else profile,
            "j_track": list(self.j_track),
            "zeta_track": [[z.real, z.imag] for z in self.zeta_track],
            "energy": self.energy(),
        }

    @staticmethod
    def from_dict(d: dict) -> "ProfileTerm":
        """The term of a record with an inline profile; "energy" is not read."""
        return ProfileTerm(
            profile_from_dict(d["profile"]),
            d["j_track"],
            [complex(z[0], z[1]) for z in d["zeta_track"]],
        )


@dataclass(frozen=True)
class Decomposition:
    terms: tuple
    remainder_expl2: tuple  # per index k
    input_energy_limsup: float
    status: str = "converged"

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(
            self, "remainder_expl2", tuple(float(r) for r in self.remainder_expl2)
        )
        if not _within_budget(self.terms, self.input_energy_limsup):
            raise ValueError("term energies exceed the input energy budget")

    def energy(self) -> float:
        return sum(t.energy() for t in self.terms)


def _within_budget(terms, limit: float) -> bool:
    """True iff the term energies sum to at most the budget, up to 1e-6."""
    return sum(t.energy() for t in terms) <= limit + 1e-6


_ORTH_DELTA = 0.05  # center separation
_ORTH_LOG_GAP = math.log(2.0)  # log-scale separation
_ORTH_TAIL_FRACTION = 0.5  # share of the index list the criteria look at


def orthogonality_check(a: ProfileTerm, b: ProfileTerm) -> bool:
    """Asymptotic separation of two tracks: centers apart, or scales diverging.

    True iff on the last half of the index list either
    |zeta_a - zeta_b| >= 0.05 throughout, or |log j_a - log j_b| >= log 2
    throughout and the gap does not shrink from the start of that tail to
    its end.
    """
    if len(a.j_track) != len(b.j_track):
        raise ValueError("tracks must cover the same index list")
    n = len(a.j_track)
    start = min(n - 1, int(math.floor(n * (1.0 - _ORTH_TAIL_FRACTION))))
    dist = [abs(za - zb) for za, zb in zip(a.zeta_track, b.zeta_track)][start:]
    if min(dist) >= _ORTH_DELTA:
        return True
    gaps = [
        abs(math.log(ja) - math.log(jb))
        for ja, jb in zip(a.j_track, b.j_track)
    ][start:]
    return min(gaps) >= _ORTH_LOG_GAP and gaps[-1] >= gaps[0]


@dataclass(frozen=True)
class LedgerReport:
    term_energies: tuple
    total: float
    input_limsup: float
    slack: float


def energy_ledger(d: Decomposition) -> LedgerReport:
    """Per-term gradient energies against the input energy budget."""
    energies = tuple(t.energy() for t in d.terms)
    total = float(sum(energies))
    slack = d.input_energy_limsup - total
    return LedgerReport(energies, total, d.input_energy_limsup, slack)


# -- extraction ----------------------------------------------------------------

def _trim_profile_support(w: RadialProfile, t_min: float) -> RadialProfile:
    """Zero the profile on [0, t_min] so synthesized terms fit in the disc."""
    if t_min <= 0.0:
        return w
    nodes = np.union1d(w.nodes, [t_min])
    vals = w.value_at(nodes)
    vals[nodes <= t_min] = 0.0
    return RadialProfile.from_arrays(nodes, vals, 2)


_K_TAIL = 3  # members averaged as the finite weak-limit stand-in


def _tail_average(base_profiles, js) -> RadialProfile:
    """Average the scale-j dilations of the per-member mean profiles (tail only)."""
    tail = range(max(0, len(base_profiles) - _K_TAIL), len(base_profiles))
    profs = [gauge_apply(base_profiles[i], float(js[i])) for i in tail]
    ref = profs[-1]
    acc = np.zeros_like(ref.values)
    for p in profs:
        acc += p.value_at(ref.nodes)
    acc /= len(profs)
    acc[0] = 0.0
    return RadialProfile.from_arrays(ref.nodes, acc, 2)


def _dilation_pairings(base: RadialProfile, ref: RadialProfile, j_max: int):
    """h1_inner(gauge_apply(base, j), ref) for j = 1 .. j_max, in one evaluation.

    The reference is linear with slope dv_k on [t_k, t_{k+1}] and flat on its
    plateau, so each pairing is the segment sum
    omega j^{-1/2} sum_k dv_k (base(j t_{k+1}) - base(j t_k)).
    """
    js = np.arange(1, j_max + 1, dtype=float)
    rises = np.diff(base.value_at(np.outer(js, ref.nodes)), axis=1)
    return sphere_area(2) / np.sqrt(js) * (rises @ ref.slopes)


def _track_candidate(members, d0: disc.DislocationParam, j_max: int):
    """Per-member (scale, center) plus the averaged profile for one detection.

    Each member's opening scale maximizes its detector score at the
    detection's center, on one scan net shared by all members; centers are
    then refined by local score maximization, all of them first.
    Scales are locked by a matched filter: the angular-mean profile around
    the center is computed once per member (its dilations give every integer
    scale exactly), on one polar net per distinct center that samples every
    member refined to it, and the scale maximizing the Dirichlet pairing with
    a common reference profile is chosen, iterating twice so the reference
    and the track are self-consistent across members.
    """
    scan = disc._scores(members, np.arange(1, j_max + 1), d0.zeta)  # one net
    js = [1 + int(k) for k in np.argmax(scan, axis=1)]
    zetas = [disc._refine_center(u, d0.zeta, j)[1] for u, j in zip(members, js)]
    base_profiles = disc._angular_profiles(members, zetas, n_phi=64)
    for _ in range(2):
        ref = _tail_average(base_profiles, js)
        nrm = grad_norm(ref, 2)
        if nrm < 1e-12:
            break
        ref = RadialProfile.from_arrays(ref.nodes, ref.values / nrm, 2)
        for i, base in enumerate(base_profiles):
            js[i] = 1 + int(np.argmax(_dilation_pairings(base, ref, j_max)))
    js = [int(j) for j in np.maximum.accumulate(js)]
    track = list(zip(js, zetas))
    w = _tail_average(base_profiles, js)
    return track, w


def _apply_bubbles(op, members, term: ProfileTerm, indices, grid) -> None:
    """members[idx] = op(members[idx], bubble of term at idx), for idx in indices.

    The bubble depends only on (j, zeta), so it is built once per distinct
    pair and freed before the next one is built.
    """
    groups: dict = {}
    for idx in indices:
        groups.setdefault((term.j_track[idx], term.zeta_track[idx]), []).append(idx)
    for group in groups.values():
        bubble = term.bubble(group[0], grid)
        for idx in group:
            members[idx] = op(members[idx], bubble)
        del bubble


def _fit_term(members, track, w, grid):
    """(term, its tail bubble) fitted to a tracked (track, w), or None.

    The bubble is the term at the tail index, as `ProfileTerm.bubble` would
    give it up to rounding.  The other members' bubbles are built
    later, by `_apply_bubbles`, once per distinct (j, zeta) group.
    """
    t_min = max(-math.log1p(-abs(z)) / j for j, z in track)
    w = _trim_profile_support(w, t_min * (1.0 + 1e-9))
    try:
        synth = disc.inflate(w, disc.DislocationParam(*track[-1]), grid)
    except disc.SupportError:
        return None
    # least-squares amplitude against the tail member: the coefficient the
    # weak limit would assign to this template, and a guard against the
    # profile estimate overshooting the energy budget
    denom = disc.energy(synth)
    if denom > 0:
        beta = disc.grad_inner(members[-1], synth) / denom
        beta = min(1.25, max(0.5, beta))
        if beta != 1.0:
            w = RadialProfile.from_arrays(w.nodes, beta * w.values, 2)
            synth = disc.scale_disc(synth, beta)
    return ProfileTerm(w, [j for j, _ in track], [z for _, z in track]), synth


def _place_term(members, starts, j_max, grid, fits_budget):
    """Fit a term from each start and subtract the best one from every member.

    The best term leaves the least tail energy, ties broken by smaller scale,
    then lexicographic center at the tail, then the whole track (two starts
    can refine to the same tail bubble but different early centers), so the
    order of the starts never decides.  Starts whose fit fails, whose term
    `fits_budget` rejects, or whose track repeats an earlier one (track and
    profile fix the fit) are skipped.  Returns (tail energy, term), with the
    members updated in place, or None with the members untouched.
    """
    tail = len(members) - 1
    chosen = None
    tracks = []
    for d0 in starts:
        track, w = _track_candidate(members, d0, j_max)
        if track in tracks:
            continue
        tracks.append(track)
        fit = _fit_term(members, track, w, grid)
        if fit is None or not fits_budget(fit[0]):
            del fit  # a rejected bubble is freed before the next fit
            continue
        term = fit[0]
        resid = disc.subtract_disc(members[tail], fit[1])
        del fit  # the bubble is freed before the energy
        zl = term.zeta_track[-1]
        key = (disc.energy(resid), term.j_track[-1], zl.real, zl.imag,
               term.j_track, [(z.real, z.imag) for z in term.zeta_track])
        if chosen is None or key < chosen[0]:
            chosen = (key, term, resid)
        del resid  # a losing residual is freed before the next fit
    if chosen is None:
        return None
    key, term, members[tail] = chosen
    _apply_bubbles(disc.subtract_disc, members, term, range(tail), grid)
    return key[0], term


def extract(
    seq: FunctionSequence,
    eps_stop: float = 0.05,
    max_terms: int = 4,
    j_max: int = 24,
    refine_sweeps: int = 2,
) -> Decomposition:
    """Iterative detect / deflate / subtract extraction of concentration terms.

    Stops when the tail remainder drops below eps_stop in the exponential
    quasinorm, no candidate is detected, or max_terms is reached.  Aborts via
    ExtractionDiverged when the subtraction raises the tail remainder energy
    twice in a row.  After the greedy pass, `refine_sweeps` re-estimation
    sweeps refit each term against the members with all other terms removed,
    which suppresses the first-order cross-talk between separated terms.
    Neither pass accepts terms whose energies exceed the input budget.
    """
    if not seq.is_disc():
        raise ValueError("extraction operates on disc-sampled sequences")
    if any(u.order > 1 for u in seq.members):
        raise ValueError("extraction operates on members of symmetry order 1")
    if eps_stop <= 0:
        raise ValueError("stop threshold must be positive")
    members = list(seq.members)
    grid = members[0].grid
    input_limsup = max(seq.energies)

    terms: list[ProfileTerm] = []
    status = "converged"
    prev_tail_energy = seq.energies[-1]
    increases = 0

    for _ in range(max_terms):
        if expl2_disc(members[-1]) < eps_stop:
            break
        cands = disc.concentration_detect(
            members[-1], eps=eps_stop / 4.0, j_max=j_max, top_k=4
        )
        shortlist = [d0 for d0, score in cands if score >= 0.5 * cands[0][1]]
        placed = _place_term(
            members, shortlist, j_max, grid,
            lambda t: _within_budget(terms + [t], input_limsup),
        )
        if placed is None:
            status = "no-candidates"
            break
        tail_energy, term = placed
        terms.append(term)
        if tail_energy > prev_tail_energy + 1e-12:
            increases += 1
            if increases >= 2:
                raise ExtractionDiverged(
                    "tail remainder energy increased twice in a row",
                    diagnostics={
                        "terms_so_far": len(terms),
                        "tail_energy": tail_energy,
                        "previous": prev_tail_energy,
                    },
                )
        else:
            increases = 0
        prev_tail_energy = tail_energy

    if len(terms) > 1:
        for _ in range(max(0, refine_sweeps)):
            for i in range(len(terms)):
                old = terms[i]
                # the running residual plus term i: every other term removed
                cleaned = list(members)
                _apply_bubbles(disc.add, cleaned, old, range(len(cleaned)), grid)
                d0 = disc.DislocationParam(old.j_track[-1], old.zeta_track[-1])
                placed = _place_term(
                    cleaned, [d0], j_max, grid,
                    lambda t: _within_budget(
                        terms[:i] + [t] + terms[i + 1:], input_limsup
                    ),
                )
                if placed is not None:
                    terms[i] = placed[1]
                    members = cleaned
                del cleaned

    remainder = tuple(expl2_disc(u) for u in members)
    return Decomposition(
        terms=tuple(terms),
        remainder_expl2=remainder,
        input_energy_limsup=input_limsup,
        status=status,
    )


# -- dislocation-weak vanishing test ---------------------------------------------

_DWEAK_SLOW_RATIO = 0.5
_DWEAK_FLOOR = 0.05


@dataclass(frozen=True)
class DWeakReport:
    per_member: tuple  # max |pairing| per member over tracks and probes
    witness: dict | None
    verdict: str


def _as_disc_members(seq: FunctionSequence):
    if seq.is_disc():
        return list(seq.members)
    extent = max(float(m.nodes[-1]) for m in seq.members) + 1.0
    grid = disc.PolarGrid(n_r=256, n_theta=64, s_max=extent)
    return [
        disc.inflate(m, disc.DislocationParam(1, 0.0), grid) for m in seq.members
    ]


def dweak_test(
    seq: FunctionSequence,
    probe_count: int = 6,
    seed: int = 0,
    n_random_tracks: int = 6,
    j_max: int = 24,
) -> DWeakReport:
    """Search dislocation tracks for a non-vanishing deflated pairing.

    Tracks come from the identity dislocation, the concentration detector on
    each member, and seeded random (scale, center) draws; pairings are taken
    against a fixed probe set in the Dirichlet form.  One detector scan covers
    all members, and the (member, track) pairs are deflated in groups of one
    (j, zeta): each polar net is built once.  A scale-j deflation is
    j-fold symmetric, so on its grid the probes are order-j blocks, without
    the entries whose angular mode j does not divide (they pair to 0).  A
    small maximal tail pairing is numerical evidence of dislocation-weak
    vanishing; a large one is a certificate of concentration, reported with
    its witnessing track.
    """
    members = _as_disc_members(seq)
    rng = np.random.default_rng(seed)
    probes: dict = {}  # per output grid and symmetry order of the deflations

    tracks: list[tuple[int, complex, str]] = [(1, 0.0 + 0.0j, "identity")]
    for _ in range(n_random_tracks):
        j = int(rng.integers(1, j_max + 1))
        zeta = complex(*(rng.uniform(-0.35, 0.35, size=2)))
        tracks.append((j, zeta, "random"))

    local = [tracks + [(c[0].j, c[0].zeta, "detector")
                       for c in disc._detect(u, rows, 1e-4, j_max, refine=False, top_k=2)]
             for u, rows in zip(members, disc._scan(members, j_max))]
    # the (member, track) pairs of one (j, zeta) share its nets
    groups: dict = {}
    for k, lst in enumerate(local):
        for t, (j, zeta, _) in enumerate(lst):
            groups.setdefault((j, zeta), []).append((k, t))
    pairings = {}
    for (j, zeta), pairs in groups.items():
        d = disc.DislocationParam(j, zeta)
        for i, vals in disc._deflation_samples([members[k] for k, _ in pairs], d):
            k, t = pairs[i]
            try:
                w = disc._deflated(members[k], d, vals)
            except ValueError:
                continue
            key = (w.grid, w.order)
            if key not in probes:
                probes[key] = disc.make_probes(w.grid, probe_count, w.order)
            pairings[k, t] = disc.max_pairing(w, probes[key])

    per_member = []
    witness = None
    for k, lst in enumerate(local):
        best = 0.0
        best_track = None
        for t, (j, zeta, kind) in enumerate(lst):
            val = pairings.get((k, t), 0.0)  # a failed deflation pairs to nothing
            if val > best:
                best = val
                best_track = {"j": j, "zeta": [zeta.real, zeta.imag], "kind": kind}
        per_member.append(best)
        witness = best_track if best_track is not None else witness
    if tail_decayed(per_member, _DWEAK_SLOW_RATIO, _DWEAK_FLOOR):
        verdict = "dweak-null-evidence"
    else:
        verdict = "non-vanishing"
    return DWeakReport(tuple(per_member), witness, verdict)
