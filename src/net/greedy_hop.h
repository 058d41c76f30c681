// Hop-selection kernels for the extended greedy scheme (paper, Section 2.2)
// and the fault-detour policy used by the engine (net/engine.cpp): one
// contention priority, one dimension-rotation order, one detour policy.
//
// The kernels are templated over two small access abstractions:
//
//  * Coordinate accessors (`CP`, `DC`): anything indexable as `c[i]` for
//    dimension i — the engine passes raw `const std::int32_t*` rows of its
//    N x d coordinate table.
//
//  * Link-liveness functor (`AliveFn`, faulted path only): `alive(dim, dir)`
//    must return whether the directed link exists *and* is currently up.
//    The engine closes over the processor's coordinate row (mesh boundary
//    links do not exist) plus the per-step dead mask.
#pragma once

#include <cstdint>

#include "meshsim/topology.h"
#include "net/packet.h"
#include "util/math.h"

namespace mdmesh {

/// A packet whose accumulated slack (steps elapsed beyond its ideal
/// shortest-path schedule) exceeds this starts rotating the fallback detour
/// order, so a detour cycle cannot repeat the same two hops forever.
inline constexpr std::int64_t kDetourRotateSlack = 4;

/// Past this much slack the packet is assumed trapped in a cycle the plain
/// fallback order cannot escape (e.g. its class insists on re-correcting a
/// sidestep dimension straight back into the wall); it then makes an
/// occasional hash-randomized choice over *every* alive hop, progress hops
/// included, so any escape edge is eventually tried.
inline constexpr std::int64_t kScrambleSlack = 16;

/// Mixes (step, packet id) into rotation choices for trapped packets. Slack
/// alone is unusable as a rotation source: it can grow by an exact multiple
/// of the candidate count per trap cycle, repeating the same choices forever.
/// The hash sequence never repeats across steps, so a deterministic limit
/// cycle cannot persist — and it stays identical across thread counts.
inline std::uint64_t DetourHash(std::int64_t step, std::int64_t id) {
  std::uint64_t x = (static_cast<std::uint64_t>(step) << 32) ^
                    (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ull);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

inline int LockDim(std::uint16_t flags) { return (flags >> 9) & 0xF; }
inline int LockDir(std::uint16_t flags) { return (flags >> 13) & 1; }
inline std::uint16_t MakeLock(int dim, int dir) {
  return static_cast<std::uint16_t>(Packet::kLockActive | (dim << 9) |
                                    (dir << 13));
}

/// Finds the next hop for a packet at coordinates `cp` heading to `dc`,
/// visiting dimensions in the rotated order starting at `klass`. Returns the
/// remaining distance; sets dim/dir to the first uncorrected dimension, or
/// dim = -1 if the packet is at its destination.
template <typename CP, typename DC>
std::int64_t NextHop(const CP& cp, const DC& dc, int d, int n, bool torus,
                     std::uint16_t klass, int& dim, int& dir) {
  std::int64_t rem = 0;
  dim = -1;
  dir = 0;
  for (int t = 0; t < d; ++t) {
    int i = klass + t;
    if (i >= d) i -= d;
    const std::int32_t c = cp[i];
    const std::int32_t g = dc[i];
    if (c == g) continue;
    std::int64_t dist;
    int step;
    if (torus) {
      std::int64_t forward = Mod(g - c, n);
      if (forward <= n - forward) {
        dist = forward;
        step = 1;
      } else {
        dist = n - forward;
        step = -1;
      }
    } else {
      dist = AbsDiff(c, g);
      step = g > c ? 1 : -1;
    }
    rem += dist;
    if (dim < 0) {
      dim = i;
      dir = step > 0 ? 1 : 0;
    }
  }
  return rem;
}

/// Direction-only variant of NextHop for queues that cannot have link
/// contention (a single resident packet): stops at the first uncorrected
/// dimension without accumulating the remaining distance, which is only
/// ever used as a contention priority.
template <typename CP, typename DC>
inline void NextHopDir(const CP& cp, const DC& dc, int d, int n, bool torus,
                       std::uint16_t klass, int& dim, int& dir) {
  for (int t = 0; t < d; ++t) {
    int i = klass + t;
    if (i >= d) i -= d;
    const std::int32_t c = cp[i];
    const std::int32_t g = dc[i];
    if (c == g) continue;
    if (torus) {
      const std::int64_t forward = Mod(g - c, n);
      dir = forward <= n - forward ? 1 : 0;
    } else {
      dir = g > c ? 1 : 0;
    }
    dim = i;
    return;
  }
  dim = -1;
  dir = 0;
}

/// Fault-aware hop selection: like NextHop, but skips dead links. Candidate
/// order — (1) the preferred hop; (2) the other uncorrected dimensions in
/// rotated order (still shortest-path progress, merely out of dimension
/// order); (3) fallbacks that temporarily increase distance: sidesteps
/// through corrected dimensions first (cost 2 around a wall), then the
/// reverse direction of each uncorrected dimension.
///
/// Local information alone livelocks: the node *next to* a dead link sees a
/// healthy shortest-way hop pointing straight back at the wall. Two
/// stateless-per-step escapes handle that, both derived from state the
/// packet already carries:
///  - Wrong-way commitment (torus): taking a reverse fallback locks that
///    (dimension, direction) into the packet's flag bits, and the packet
///    keeps walking the long way around the ring until the dimension is
///    corrected (or the locked path itself dies).
///  - Slack-gated randomization: slack = steps elapsed beyond the packet's
///    ideal shortest-path schedule (from `step` and `dist0`), monotone
///    while stuck. Past kDetourRotateSlack the fallback order rotates by a
///    per-step hash; past kScrambleSlack the packet additionally makes a
///    hash-randomized choice over every alive hop on ~1 in 4 steps. The
///    perturbation is intermittent, so a packet that escapes its trap still
///    drifts home greedily; a trapped one keeps getting kicked until some
///    kick lands on an escape edge.
///
/// `alive(dim, dir)` must answer both link existence (mesh boundaries) and
/// the per-step dead mask; boundary links therefore never get chosen.
///
/// Sets dim = -1 when every outgoing link is dead (the packet cannot bid);
/// `detour` is set when the chosen hop differs from the fault-free one.
/// Returns the remaining first-leg distance, like NextHop.
template <typename CP, typename DC, typename AliveFn>
std::int64_t NextHopFaulted(const CP& cp, const DC& dc, int d, int n,
                            bool torus, std::uint16_t klass, std::int64_t id,
                            std::uint16_t& flags, const AliveFn& alive,
                            std::int64_t step, std::int32_t dist0,
                            std::int64_t twoleg_extra, int& dim, int& dir,
                            bool& detour) {
  int u_dim[kMaxDim], u_dir[kMaxDim];
  int nu = 0;
  std::int64_t rem = 0;
  for (int t = 0; t < d; ++t) {
    int i = klass + t;
    if (i >= d) i -= d;
    const std::int32_t c = cp[i];
    const std::int32_t g = dc[i];
    if (c == g) continue;
    std::int64_t dist;
    int sgn;
    if (torus) {
      std::int64_t forward = Mod(g - c, n);
      if (forward <= n - forward) {
        dist = forward;
        sgn = 1;
      } else {
        dist = n - forward;
        sgn = -1;
      }
    } else {
      dist = AbsDiff(c, g);
      sgn = g > c ? 1 : -1;
    }
    rem += dist;
    u_dim[nu] = i;
    u_dir[nu] = sgn > 0 ? 1 : 0;
    ++nu;
  }
  dim = -1;
  dir = 0;
  detour = false;
  if (nu == 0) {
    flags &= static_cast<std::uint16_t>(~Packet::kLockMask);
    return 0;
  }
  const std::int64_t slack = (step - 1) - (dist0 - (rem + twoleg_extra));
  const std::uint64_t hash =
      slack > kDetourRotateSlack ? DetourHash(step, id) : 0;
  if ((flags & Packet::kLockActive) != 0) {
    const int ld = LockDim(flags);
    const int ldir = LockDir(flags);
    if (cp[ld] == dc[ld]) {
      // Dimension corrected: the commitment paid off.
      flags &= static_cast<std::uint16_t>(~Packet::kLockMask);
    } else if (alive(ld, ldir)) {
      dim = ld;
      dir = ldir;
      detour = ld != u_dim[0] || ldir != u_dir[0];
      return rem;
    } else {
      // The committed ring is blocked here. Sidestep to an adjacent ring
      // and KEEP the lock — the packet rounds the fault block instead of
      // bouncing back toward the distance gradient it committed against.
      const int np = 2 * (d - 1);
      for (int t = 0; t < np; ++t) {
        int k = t + (np > 0 ? static_cast<int>(DetourHash(step, ~id) %
                                               static_cast<std::uint64_t>(np))
                            : 0);
        if (k >= np) k -= np;
        int i = k / 2;
        if (i >= ld) ++i;  // skip the locked dimension
        const int dr = k & 1;
        if (!alive(i, dr)) continue;
        dim = i;
        dir = dr;
        detour = true;
        return rem;
      }
      // Fully cornered on the committed path: give up the lock.
      flags &= static_cast<std::uint16_t>(~Packet::kLockMask);
    }
  }
  const bool scramble_now = slack > kScrambleSlack && (hash & 3) == 0;
  if (!scramble_now) {
    if (alive(u_dim[0], u_dir[0])) {
      dim = u_dim[0];
      dir = u_dir[0];
      return rem;
    }
    for (int k = 1; k < nu; ++k) {
      if (alive(u_dim[k], u_dir[k])) {
        dim = u_dim[k];
        dir = u_dir[k];
        detour = true;
        return rem;
      }
    }
  }
  int c_dim[4 * kMaxDim], c_dir[4 * kMaxDim];
  bool c_rev[4 * kMaxDim];
  int nc = 0;
  if (scramble_now) {
    for (int k = 0; k < nu; ++k) {
      c_dim[nc] = u_dim[k];
      c_dir[nc] = u_dir[k];
      c_rev[nc] = false;
      ++nc;
    }
  }
  for (int t = 0; t < d; ++t) {
    int i = klass + t;
    if (i >= d) i -= d;
    if (cp[i] != dc[i]) continue;
    c_dim[nc] = i;
    c_dir[nc] = 1;
    c_rev[nc] = false;
    ++nc;
    c_dim[nc] = i;
    c_dir[nc] = 0;
    c_rev[nc] = false;
    ++nc;
  }
  for (int k = 0; k < nu; ++k) {
    c_dim[nc] = u_dim[k];
    c_dir[nc] = 1 - u_dir[k];
    c_rev[nc] = true;
    ++nc;
  }
  // Rotate with bits independent of the (hash & 3) scramble gate — reusing
  // the low bits would make every scramble step pick rotation 0.
  const int rot =
      (nc > 0 && slack > kDetourRotateSlack)
          ? static_cast<int>((hash >> 8) % static_cast<std::uint64_t>(nc))
          : 0;
  for (int t = 0; t < nc; ++t) {
    int k = t + rot;
    if (k >= nc) k -= nc;
    if (!alive(c_dim[k], c_dir[k])) continue;
    dim = c_dim[k];
    dir = c_dir[k];
    detour = dim != u_dim[0] || dir != u_dir[0];
    if (torus && c_rev[k]) {
      flags = static_cast<std::uint16_t>(
          (flags & ~Packet::kLockMask) | MakeLock(dim, dir));
    }
    return rem;
  }
  return rem;  // fully walled in: every outgoing link is dead
}

}  // namespace mdmesh
