// Truncated-series evaluation of the paper's Theorem 5.1 quantities.
//
// For a set S of processors, all UP at time 0, with UR sub-matrices M_q:
//
//   g(t)  = prod_q (M_q^t)[u][u]        (all UP at t, none DOWN in between)
//   Eu(S) = sum_{t>=1} g(t)             (expected # of all-UP slots pre-failure)
//   A(S)  = sum_{t>=1} t * g(t)
//
//   P+(S) = Eu / (1 + Eu)               (prob. of a next all-UP slot, no DOWN)
//   E_c   = A * (1 - P+) / (1 + Eu)     (paper's approximation of the gap)
//
// The spectral bound g(t) <= Lambda^t with Lambda = prod_q lambda1(M_q) < 1
// gives closed-form tails, so both series can be truncated at any requested
// precision eps in polynomial time (the theorem's claim).
//
// When every processor in S is failure-free, Eu diverges; the paper then
// defines P+(S) = 1, and we obtain E_c directly from the first-return
// distribution via the renewal recursion below.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "markov/spectral.hpp"

namespace tcgrid::markov {

/// Result of summing the all-UP survival series.
struct UpSeriesSums {
  double eu = 0.0;        ///< sum g(t), t >= 1 (truncated)
  double a = 0.0;         ///< sum t*g(t), t >= 1 (truncated)
  std::size_t terms = 0;  ///< number of series terms evaluated
  bool converged = true;  ///< tail bound met before hitting max_terms
};

/// Sum Eu(S) and A(S) with neglected tail <= eps (for both sums).
/// `max_terms` caps the work for near-critical Lambda; if hit, `converged`
/// is false and the sums are lower bounds.
[[nodiscard]] UpSeriesSums up_series(std::span<const UrMatrix> procs, double eps,
                                     std::size_t max_terms = 1 << 20);

/// First-return ("renewal") distribution of the all-UP event.
///
/// f(t) = P(first time all processors are simultaneously UP again is t,
///          with no processor DOWN in between), computed by deconvolving
///   g(t) = f(t) + sum_{s<t} f(s) g(t-s)
/// up to `horizon`. O(horizon^2); used as the production path only for
/// failure-free sets and as a cross-check of the closed forms in tests.
struct RenewalResult {
  std::vector<double> f;    ///< f[t] for t = 0..horizon (f[0] unused, = 0)
  double p_plus = 0.0;      ///< sum f(t) up to horizon
  double ec_uncond = 0.0;   ///< sum t*f(t) up to horizon (paper's E_c form)
};

[[nodiscard]] RenewalResult renewal_first_return(std::span<const UrMatrix> procs,
                                                 std::size_t horizon);

/// Everything the scheduler needs about a coupled computation on set S
/// (paper §V-A), precomputed once per candidate set.
struct CoupledStats {
  double p_plus = 1.0;      ///< P+(S)
  double ec = 0.0;          ///< E_c
  bool failure_free = false;
  bool converged = true;

  /// Probability that W slots of coupled computation complete with no
  /// processor of S going DOWN: P+(S)^(W-1) (the first slot is "now").
  /// Memo-hit path inline — these two sit under the m*p candidate
  /// evaluations of every scheduling decision.
  [[nodiscard]] double success_prob(long w) const {
    if (w <= 1) return 1.0;
    if (w > kMaxMemoW) return pow_success(w);
    return wtab(w)[0];
  }

  /// Paper's approximation E^{(S)}(W) = (1 + (W-1) E_c) / P+^(W-1) of the
  /// expected number of slots to obtain W all-UP slots, conditioned on
  /// success. Returns 0 for w <= 0.
  [[nodiscard]] double expected_time(long w) const {
    if (w <= 0) return 0.0;
    if (w > kMaxMemoW) return big_expected_time(w);
    return wtab(w)[1];
  }

  /// True when expected_time(0..w) is non-decreasing, compared exactly.
  /// Answered from the monotone prefix the w-memo records as it grows, so
  /// w past the memoized range answers false. The proactive scheduler's
  /// comm-phase quiescence relies on it (DESIGN.md §8).
  [[nodiscard]] bool expected_time_monotone_through(long w) const noexcept {
    return w < wmono_;
  }

 private:
  /// Lazily grown memo of (success_prob, expected_time) indexed by w: the
  /// incremental heuristics evaluate m*p candidates per decision, each
  /// costing pow() calls for a handful of distinct small w values. Entries
  /// are computed once through the very expressions above, so memoized and
  /// unmemoized calls return identical doubles. NOT thread-safe — callers
  /// already own one Estimator (and thus these) per thread.
  static constexpr long kMaxMemoW = 4096;  ///< larger w falls through to pow()
  const std::array<double, 2>& wtab(long w) const {
    if (w < static_cast<long>(wtab_.size())) {
      return wtab_[static_cast<std::size_t>(w)];
    }
    return wtab_grow(w);
  }
  const std::array<double, 2>& wtab_grow(long w) const;
  double pow_success(long w) const;       ///< P+^(w-1), w > kMaxMemoW
  double big_expected_time(long w) const; ///< reference form, w > kMaxMemoW
  /// Length of the longest prefix of wtab_ whose expected_time column is
  /// non-decreasing (at most kMaxMemoW + 1). Declared before wtab_ so it
  /// fills the padding after the flags: set caches hold millions of these.
  mutable std::int32_t wmono_ = 0;
  mutable std::vector<std::array<double, 2>> wtab_;
};

/// Evaluate CoupledStats for a set of processors at precision eps.
[[nodiscard]] CoupledStats coupled_stats(std::span<const UrMatrix> procs, double eps,
                                         std::size_t max_terms = 1 << 20);

}  // namespace tcgrid::markov
