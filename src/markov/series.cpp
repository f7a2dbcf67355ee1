#include "markov/series.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tcgrid::markov {

namespace {

/// Product of dominant eigenvalues: decay rate of g(t).
double decay_rate(std::span<const UrMatrix> procs) {
  double lambda = 1.0;
  for (const auto& m : procs) lambda *= m.lambda1();
  return lambda;
}

/// All processors failure-free -> the all-UP event recurs with probability 1.
bool all_failure_free(std::span<const UrMatrix> procs) {
  return std::all_of(procs.begin(), procs.end(),
                     [](const UrMatrix& m) { return m.failure_free(); });
}

}  // namespace

UpSeriesSums up_series(std::span<const UrMatrix> procs, double eps,
                       std::size_t max_terms) {
  UpSeriesSums out;
  const double lambda = decay_rate(procs);
  if (lambda >= 1.0) {
    // Divergent (failure-free) series; callers must use the renewal path.
    out.converged = false;
    return out;
  }

  std::vector<UrRow> rows(procs.size());
  double lambda_pow = 1.0;  // lambda^t
  for (std::size_t t = 1; t <= max_terms; ++t) {
    double g = 1.0;
    for (std::size_t q = 0; q < procs.size(); ++q) {
      rows[q].advance(procs[q]);
      g *= rows[q].u;
    }
    out.eu += g;
    out.a += static_cast<double>(t) * g;
    out.terms = t;
    lambda_pow *= lambda;

    // Tail bounds after T terms:  sum_{t>T} lambda^t       = lambda^{T+1}/(1-lambda)
    //                             sum_{t>T} t lambda^t    <= lambda^{T+1} *
    //                                ((T+1)/(1-lambda) + lambda/(1-lambda)^2)
    const double tail_a = lambda_pow * lambda *
                          ((static_cast<double>(t) + 1.0) / (1.0 - lambda) +
                           lambda / ((1.0 - lambda) * (1.0 - lambda)));
    if (tail_a <= eps) return out;
  }
  out.converged = false;
  return out;
}

RenewalResult renewal_first_return(std::span<const UrMatrix> procs,
                                   std::size_t horizon) {
  RenewalResult out;
  out.f.assign(horizon + 1, 0.0);

  // g[t] for t = 1..horizon.
  std::vector<double> g(horizon + 1, 0.0);
  std::vector<UrRow> rows(procs.size());
  for (std::size_t t = 1; t <= horizon; ++t) {
    double prod = 1.0;
    for (std::size_t q = 0; q < procs.size(); ++q) {
      rows[q].advance(procs[q]);
      prod *= rows[q].u;
    }
    g[t] = prod;
  }

  for (std::size_t t = 1; t <= horizon; ++t) {
    double conv = 0.0;
    for (std::size_t s = 1; s < t; ++s) conv += out.f[s] * g[t - s];
    out.f[t] = std::max(0.0, g[t] - conv);
    out.p_plus += out.f[t];
    out.ec_uncond += static_cast<double>(t) * out.f[t];
  }
  return out;
}

const std::array<double, 2>& CoupledStats::wtab_grow(long w) const {
  // Grow the memo through the reference expressions so lookups return the
  // exact doubles direct computation would.
  auto size = static_cast<long>(wtab_.size());
  wtab_.reserve(static_cast<std::size_t>(w + 1));
  for (; size <= w; ++size) {
    const double sp =
        size <= 1 ? 1.0 : std::pow(p_plus, static_cast<double>(size - 1));
    double et = 0.0;
    if (size > 0) {
      const double numer = 1.0 + static_cast<double>(size - 1) * ec;
      et = sp <= 0.0 ? std::numeric_limits<double>::infinity() : numer / sp;
    }
    wtab_.push_back({sp, et});
    const auto i = static_cast<std::size_t>(size);
    if (wmono_ == size && (i == 0 || et >= wtab_[i - 1][1])) {
      wmono_ = static_cast<std::int32_t>(size + 1);
    }
  }
  return wtab_[static_cast<std::size_t>(w)];
}

double CoupledStats::pow_success(long w) const {
  return std::pow(p_plus, static_cast<double>(w - 1));
}

double CoupledStats::big_expected_time(long w) const {
  const double numer = 1.0 + static_cast<double>(w - 1) * ec;
  const double denom = success_prob(w);
  if (denom <= 0.0) return std::numeric_limits<double>::infinity();
  return numer / denom;
}

CoupledStats coupled_stats(std::span<const UrMatrix> procs, double eps,
                           std::size_t max_terms) {
  CoupledStats out;
  if (procs.empty()) {
    out.failure_free = true;
    out.p_plus = 1.0;
    out.ec = 1.0;  // with no constraint, the next slot is always "all UP"
    return out;
  }
  const double lambda = [&] {
    double l = 1.0;
    for (const auto& m : procs) l *= m.lambda1();
    return l;
  }();
  if (lambda >= 1.0 - 1e-12) {
    // The spectral tail bound is useless (some processor cannot fail, or can
    // only fail through RECLAIMED while its UP state is absorbing): the
    // Eu/A series may diverge. The first-return mass still converges, so use
    // the renewal recursion directly, growing the horizon until the residual
    // first-return probability is below eps.
    out.failure_free = all_failure_free(procs);
    // The recursion is O(horizon^2); cap it. Aperiodic chains concentrate
    // their first-return mass at small t, so stop early once doubling the
    // horizon no longer adds meaningful mass.
    const std::size_t horizon_cap = std::min<std::size_t>(max_terms, 8192);
    std::size_t horizon = 64;
    double prev_mass = -1.0;
    for (;;) {
      const RenewalResult r = renewal_first_return(procs, horizon);
      const double residual = 1.0 - r.p_plus;
      const bool stalled = prev_mass >= 0.0 && r.p_plus - prev_mass <= eps * 0.25;
      if (residual <= eps || stalled || horizon >= horizon_cap) {
        // Paper: P+ = 1 exactly when no processor can fail.
        out.p_plus = out.failure_free ? 1.0 : r.p_plus;
        out.ec = r.ec_uncond;
        out.converged = residual <= eps || stalled;
        return out;
      }
      prev_mass = r.p_plus;
      horizon *= 2;
    }
  }

  const UpSeriesSums sums = up_series(procs, eps, max_terms);
  out.converged = sums.converged;
  out.p_plus = sums.eu / (1.0 + sums.eu);
  out.ec = sums.a * (1.0 - out.p_plus) / (1.0 + sums.eu);
  return out;
}

}  // namespace tcgrid::markov
