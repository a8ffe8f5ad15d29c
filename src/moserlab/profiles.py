"""Constructive profile extraction from bounded sequences on the disc.

The extractor iterates: detect the strongest concentration candidate on the
tail member, track its (scale, center) across the sequence, approximate the
profile by angular averaging of the deflated members (profiles of diverging
scales are radial, and the angular mean is an orthogonal projection in the
Dirichlet form), average the last few deflations as a finite stand-in for
the weak limit, subtract the synthesized term from every member, and repeat
until the remainder is small in the working exponential-class quasinorm or a
term cap is reached.

One placement step, `_place_term`, fits and chooses for both passes, and
only reads the members: it fits a term from each starting (scale, center)
and chooses, among the terms that fit the input energy budget, the one whose
subtraction leaves the least tail energy, ties broken by smaller scale, then
lexicographic center, then the whole track.  The greedy pass starts it from
every detection scoring at least half the best one; a refine sweep, from a
term's last (scale, center) on the members cleaned of every other term.

The members carry one running residual, an owned copy of the inputs made
once, and `extract` makes every update of it, in place, by `_apply_bubbles`:
the greedy pass subtracts each chosen term from every member, the tail
included; a refine step adds its term back, refits, then subtracts the
refit if it leaves less tail energy than the old term did, else the old
term.  Each greedy iteration checks, in order: the tail remainder below
eps_stop ("converged"), the term cap ("max-terms"), no placement
("no-candidates"), a second rise in a row of the tail energy ("diverged",
unrefined).  A fit is ranked without a subtraction, by the closed form
E(m) - 2 beta <m, s> + beta^2 <s, s> of the tail energy it leaves, s its
tail bubble.  A bubble depends only on the term's (scale, center) at an
index, and a track repeats few of them, so an application builds the field
-log|z - zeta| of each distinct center and the bubble of each distinct
(j, zeta) a block of rings at a time, applied to every member of its group
while in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import disc
from .disc import _integer, _point
from .functional import tail_decayed
from .radial import OMEGA, RadialProfile, gauge_apply, grad_norm
from .radial import profile_from_dict, profile_to_dict
from .rearrange import expl2_disc

__all__ = [
    "FunctionSequence",
    "ProfileTerm",
    "Decomposition",
    "extract",
    "orthogonality_check",
    "LedgerReport",
    "energy_ledger",
    "DWeakReport",
    "dweak_test",
]


_GRAD_NORM_BOUND = 10.0
_REFINE_SWEEPS = 2  # `extract`'s re-estimation sweeps after the greedy pass


@dataclass(frozen=True)
class FunctionSequence:
    """Indexed sequence of disc samples or radial profiles on one grid."""

    members: tuple
    k_list: tuple
    # members' Dirichlet energies (squared gradient norms), set on validation
    energies: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        object.__setattr__(self, "k_list", tuple(_integer(k, "k_list") for k in self.k_list))
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
            norms = [grad_norm(m) for m in self.members]
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
        object.__setattr__(self, "j_track", tuple(_integer(j, "j_track") for j in self.j_track))
        object.__setattr__(
            self, "zeta_track", tuple(complex(z) for z in self.zeta_track)
        )
        if len(self.j_track) != len(self.zeta_track):
            raise ValueError("scale and center tracks must align")
        if any(j < 1 for j in self.j_track):
            raise ValueError("scales must be positive integers")
        if any(b < a for a, b in zip(self.j_track, self.j_track[1:])):
            raise ValueError("concentrating scale tracks must be nondecreasing")
        if not all(abs(z) <= 0.5 + 1e-9 for z in self.zeta_track):  # NaN fails it too
            raise ValueError("centers must stay in the closed half-disc")

    def energy(self) -> float:
        return grad_norm(self.w) ** 2

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
        """The term of a record with an inline profile, each center a pair of
        real numbers (no bool, string or null); "energy" is not read."""
        zetas = [_point(z, f"zeta_track[{i}]") for i, z in enumerate(d["zeta_track"])]
        return ProfileTerm(profile_from_dict(d["profile"]), d["j_track"], zetas)


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
    return RadialProfile(nodes, vals)


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
    return RadialProfile(ref.nodes, acc)


def _dilation_pairings(base: RadialProfile, ref: RadialProfile, j_max: int):
    """h1_inner(gauge_apply(base, j), ref) for j = 1 .. j_max, in one evaluation.

    The reference is linear with slope dv_k on [t_k, t_{k+1}] and flat on its
    plateau, so each pairing is the segment sum
    omega j^{-1/2} sum_k dv_k (base(j t_{k+1}) - base(j t_k)).
    """
    js = np.arange(1, j_max + 1, dtype=float)
    rises = np.diff(base.value_at(np.outer(js, ref.nodes)), axis=1)
    return OMEGA / np.sqrt(js) * (rises @ ref.slopes)


def _track_candidate(members, d0: disc.DislocationParam, j_max: int, memo: dict):
    """Per-member (scale, center) plus the averaged profile for one detection.

    Each member's opening scale maximizes its detector score at the
    detection's center, on one scan net shared by all members; centers are
    then refined by local score maximization, all of them first.
    Scales are locked by a matched filter: the angular-mean profile around
    the center is computed once per member (its dilations give every integer
    scale exactly), on one polar net per distinct center that samples every
    member refined to it, and kept in `memo` by (member index, center) for
    later starts; the scale maximizing the Dirichlet pairing with a common
    reference profile is chosen, iterating twice so the reference and the
    track are self-consistent across members.
    """
    scan = disc._scores(members, np.arange(1, j_max + 1), d0.zeta)  # one net
    js = [1 + int(k) for k in np.argmax(scan, axis=1)]
    zetas = [disc._refine_center(u, d0.zeta, j)[1] for u, j in zip(members, js)]
    new = [(k, z) for k, z in enumerate(zetas) if (k, z) not in memo]
    memo.update(zip(new, disc._angular_profiles([members[k] for k, _ in new],
                                                [z for _, z in new], n_phi=64)))
    base_profiles = [memo[k, z] for k, z in enumerate(zetas)]
    for _ in range(2):
        ref = _tail_average(base_profiles, js)
        nrm = grad_norm(ref)
        if nrm < 1e-12:
            break
        ref = RadialProfile(ref.nodes, ref.values / nrm)
        for i, base in enumerate(base_profiles):
            js[i] = 1 + int(np.argmax(_dilation_pairings(base, ref, j_max)))
    js = [int(j) for j in np.maximum.accumulate(js)]
    track = list(zip(js, zetas))
    w = _tail_average(base_profiles, js)
    return track, w


def _groups(term: ProfileTerm) -> dict:
    """{zeta: {j: indices}}: the indices of each distinct (j, zeta) of the track."""
    groups: dict = {}
    for idx, (j, zeta) in enumerate(zip(term.j_track, term.zeta_track)):
        groups.setdefault(zeta, {}).setdefault(j, []).append(idx)
    return groups


def _apply_bubbles(op, members, term: ProfileTerm, grid) -> None:
    """members[idx] = op(members[idx], bubble of term at idx) in place, for every idx, op
    np.add or np.subtract, each member an `_owned_copy`; the supports are checked first.
    Per center the field -log|z - zeta| is built a block of rings at a time, and per block
    each j's bubble block once, applied to its (j, zeta) group while in cache (bubbles are 0
    on the boundary ring, which takes op(x, 0)); each member then gets a new function's checks."""
    if any(u.rings.base is None for u in members):
        raise TypeError("an in-place update needs an `_owned_copy`")
    frames = [disc._bubble(term.w, disc.DislocationParam(*d))  # (center, support radius)
              for d in zip(term.j_track, term.zeta_track)]
    peaks = [disc._peak(op(u.rings.base[-1], 0.0, out=u.rings.base[-1])) for u in members]
    for zeta, by_j in _groups(term).items():
        for a, b, field in disc._log_distance(grid, zeta):
            buf = np.empty_like(field) if a == 0 else buf  # the first block is the largest
            for j, group in by_j.items():
                block = disc._bubble_rows(term.w, j, field, buf[:b - a])
                for idx in group:  # a one-column block (the origin) spans the rows
                    rows = members[idx].rings.base[a:b]
                    peaks[idx] = np.maximum(peaks[idx], disc._peak(op(rows, block, out=rows)))
    for u, (c, r), peak in zip(members, frames, peaks):
        vars(u).update(center=float(op(u.center, c)), support_radius=max(u.support_radius, r))
        u._own(u.rings, float(peak))


def _fit_term(tail, track, w):
    """(term, tail energy it leaves) fitted to a tracked (track, w), or None.

    `tail` is the tail member m and its energy E(m).  The candidate
    bubble s is w inflated at the track's last (j, zeta), on m's grid; the
    term is beta w, and the energy it leaves is E(m - beta s) in closed form,
    E(m) - 2 beta <m, s> + beta^2 <s, s>: no bubble is subtracted here.
    """
    m, em = tail
    t_min = max(-math.log1p(-abs(z)) / j for j, z in track)
    w = _trim_profile_support(w, t_min * (1.0 + 1e-9))
    try:
        bubble = disc.inflate(w, disc.DislocationParam(*track[-1]), m.grid)
    except disc.SupportError:
        return None
    # least-squares amplitude against the tail member: the coefficient the
    # weak limit would assign to this template, and a guard against the
    # profile estimate overshooting the energy budget; <s, s> and <s, m> in one pairing
    ss, ms = (float(x) for x in disc._pair(bubble, [bubble, m]))
    beta = min(1.25, max(0.5, ms / ss)) if ss > 0 else 1.0
    if beta != 1.0:
        w = RadialProfile(w.nodes, beta * w.values)
    term = ProfileTerm(w, [j for j, _ in track], [z for _, z in track])
    return term, em - 2.0 * beta * ms + beta * beta * ss


def _place_term(members, starts, j_max, fits_budget):
    """The best term fitted from the starts: (closed-form tail energy, term), or None.

    The best term leaves the least tail energy, ties broken by smaller scale,
    then lexicographic center at the tail, then the whole track (two starts
    can refine to the same tail bubble but different early centers), so the
    order of the starts never decides.  Starts whose fit fails, whose term
    `fits_budget` rejects, or whose track repeats an earlier one (track and
    profile fix the fit) are skipped.  The members are only read.
    """
    # the members do not change between starts: one tail energy and one memo serve them all
    tail = (members[-1], float(disc._pair(members[-1], members[-1:])[0]))
    tracks, fits = [], []  # every distinct track; (key, term) of each kept fit
    memo: dict = {}
    for d0 in starts:
        track, w = _track_candidate(members, d0, j_max, memo)
        if track in tracks:
            continue
        tracks.append(track)
        fit = _fit_term(tail, track, w)
        if fit is not None and fits_budget(fit[0]):
            term, tail_energy = fit
            zl = term.zeta_track[-1]
            fits.append(((tail_energy, term.j_track[-1], zl.real, zl.imag, term.j_track,
                          [(z.real, z.imag) for z in term.zeta_track]), term))
    if not fits:
        return None
    key, term = min(fits, key=lambda fit: fit[0])
    return key[0], term


def _check_options(eps_stop: float, max_terms: int, j_max: int) -> None:
    """ValueError unless `extract`'s options are legal; reads no member."""
    if not eps_stop > 0:
        raise ValueError("stop threshold must be positive")
    if max_terms < 0:
        raise ValueError("the term cap must be nonnegative")
    if j_max < 1:
        raise ValueError("the scale cap must be at least 1 (j_max >= 1)")


def extract(
    seq: FunctionSequence,
    eps_stop: float = 0.05,
    max_terms: int = 4,
    j_max: int = 24,
) -> Decomposition:
    """Iterative detect / deflate / subtract extraction of concentration terms.

    Stops, checked in this order, when the tail remainder is below eps_stop
    in the exponential quasinorm (status "converged"), max_terms are placed
    ("max-terms"), no candidate is placed ("no-candidates"), or a placement
    raised the tail remainder energy, as did the one before it ("diverged":
    the terms placed so far are kept, the last one included, unrefined).
    Otherwise two re-estimation sweeps refit each term against the members
    with all other terms removed, which suppresses the first-order cross-talk
    between separated terms; a refit replaces its term only if it leaves less
    tail energy.  Neither pass accepts terms whose energies exceed the budget.
    """
    _check_options(eps_stop, max_terms, j_max)
    if not seq.is_disc():
        raise ValueError("extraction operates on disc-sampled sequences")
    if any(u.order > 1 for u in seq.members):
        raise ValueError("extraction operates on members of symmetry order 1")
    members = [disc._owned_copy(u) for u in seq.members]
    grid = members[0].grid
    input_limsup = max(seq.energies)

    terms: list[ProfileTerm] = []
    tail_energies = [seq.energies[-1]]  # the tail's energy at the start and after each placement
    while True:
        # the tail's remainder norm, kept while no bubble changes the members
        tail_norm = expl2_disc(members[-1])
        if tail_norm < eps_stop:
            status = "converged"
            break
        if len(terms) == max_terms:
            status = "max-terms"
            break
        cands = disc.concentration_detect(
            members[-1], eps=eps_stop / 4.0, j_max=j_max, top_k=4
        )
        shortlist = [d0 for d0, score in cands if score >= 0.5 * cands[0][1]]
        placed = _place_term(members, shortlist, j_max,
                             lambda t: _within_budget(terms + [t], input_limsup))
        if placed is None:
            status = "no-candidates"
            break
        tail_energy, term = placed
        _apply_bubbles(np.subtract, members, term, grid)
        terms.append(term)
        tail_energies.append(tail_energy)
        rises = [b > a + 1e-12 for a, b in zip(tail_energies, tail_energies[1:])]
        if rises[-2:] == [True, True]:
            status, tail_norm = "diverged", None
            break

    if len(terms) > 1 and status != "diverged":
        tail_norm = None
        for _ in range(_REFINE_SWEEPS):
            for i in range(len(terms)):
                old = terms[i]
                kept = float(disc._pair(members[-1], members[-1:])[0])  # tail energy with term i
                # the running residual plus term i: every other term removed
                _apply_bubbles(np.add, members, old, grid)
                d0 = disc.DislocationParam(old.j_track[-1], old.zeta_track[-1])
                placed = _place_term(members, [d0], j_max, lambda t: _within_budget(
                    terms[:i] + [t] + terms[i + 1:], input_limsup))
                if placed is not None and placed[0] < kept:
                    terms[i] = placed[1]
                _apply_bubbles(np.subtract, members, terms[i], grid)
    remainder = tuple(expl2_disc(u) for u in members[:-1])
    remainder += (expl2_disc(members[-1]) if tail_norm is None else tail_norm,)
    return Decomposition(
        terms=tuple(terms),
        remainder_expl2=remainder,
        input_energy_limsup=input_limsup,
        status=status,
    )


# -- dislocation-weak vanishing test ---------------------------------------------

_DWEAK_SLOW_RATIO = 0.5
_DWEAK_FLOOR = 0.05
# the random tracks: this many (scale, center) draws from this seed
_DWEAK_TRACKS = 6
_DWEAK_SEED = 0
# pairings within this of the largest, relative, tie: far above their rounding
_DWEAK_TIE = 1e-12


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
    return [disc.inflate(m, disc.DislocationParam(1, 0.0), grid) for m in seq.members]


def _witness_track(tracks: list, vals: list) -> tuple:
    """The first track whose pairing is within `_DWEAK_TIE` (relative) of the
    largest: pairings equal in exact arithmetic are ordered by rounding."""
    best = max(vals)
    return next(t for t, v in zip(tracks, vals) if v >= best * (1.0 - _DWEAK_TIE))


def dweak_test(seq: FunctionSequence, j_max: int = 24) -> DWeakReport:
    """Search dislocation tracks for a non-vanishing deflated pairing.

    Tracks come from the identity dislocation, the unrefined concentration
    detector on each member, and six random (scale, center) draws from seed
    0; pairings are taken in the Dirichlet form against the six probes of
    `disc.make_probes`, held separably as `disc._ProbeStack`.  One detector
    scan covers all members, and the (member, track) pairs are deflated in
    groups of one (j, zeta): each polar net is built once.  A scale-j
    deflation is j-fold symmetric, so on its grid the probes are order-j
    blocks, without the entries whose angular mode j does not divide (they
    pair to 0).  A small maximal tail pairing is numerical evidence of
    dislocation-weak vanishing; a large one is a certificate of
    concentration, reported with its witnessing track: the last member's
    first track within `_DWEAK_TIE` (1e-12, relative) of its largest pairing,
    so that rounding, and with it the BLAS kernel, does not pick the track.
    """
    if j_max < 1:
        raise ValueError("the scale cap must be at least 1 (j_max >= 1)")
    members = _as_disc_members(seq)
    rng = np.random.default_rng(_DWEAK_SEED)
    # the probe stack of one output (grid, order) and its key: the groups run in increasing j
    probe_key, probes = None, None

    tracks: list[tuple[int, complex, str]] = [(1, 0.0 + 0.0j, "identity")]
    for _ in range(_DWEAK_TRACKS):
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
    for (j, zeta), pairs in sorted(groups.items(), key=lambda g: g[0][0]):
        d = disc.DislocationParam(j, zeta)
        for i, vals in disc._deflation_samples([members[k] for k, _ in pairs], d):
            k, t = pairs[i]
            try:
                w = disc._deflated(members[k], d, vals)
            except ValueError:
                continue
            if (w.grid, w.order) != probe_key:
                probe_key, probes = (w.grid, w.order), None  # the old stack is freed first
                probes = disc._ProbeStack(w.grid, disc._PROBE_COUNT, w.order)
            pairings[k, t] = disc.max_pairing(w, probes)

    # a failed deflation pairs to nothing
    vals = [[pairings.get((k, t), 0.0) for t in range(len(lst))] for k, lst in enumerate(local)]
    per_member = [max([0.0, *v]) for v in vals]
    # the witness: the last member with a pairing above 0, at its first (near-)largest pairing
    witness = None
    k = max((k for k, best in enumerate(per_member) if best > 0.0), default=None)
    if k is not None:
        j, zeta, kind = _witness_track(local[k], vals[k])
        witness = {"j": j, "zeta": [zeta.real, zeta.imag], "kind": kind}
    null = tail_decayed(per_member, _DWEAK_SLOW_RATIO, _DWEAK_FLOOR)
    verdict = "dweak-null-evidence" if null else "non-vanishing"
    return DWeakReport(tuple(per_member), witness, verdict)
