#include "stats.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace perfbench {

Sorted::Sorted(std::vector<double> samples) : v_(std::move(samples)) {
  std::sort(v_.begin(), v_.end());
}

std::optional<double> Sorted::at(double p) const {
  if (v_.empty()) return std::nullopt;
  const double rank = p / 100.0 * static_cast<double>(v_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v_[lo] * (1.0 - frac) + v_[hi] * frac;
}

std::optional<double> Sorted::reportable(double p,
                                         std::size_t min_beyond) const {
  if (!beyond_ok(v_.size(), p, min_beyond)) return std::nullopt;
  return at(p);
}

bool beyond_ok(std::size_t n, double p, std::size_t min_beyond) {
  if (n == 0) return false;
  // Small tolerance so 1000 samples qualify p99 despite 0.01 not being
  // exact in binary.
  return static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-9 >=
         static_cast<double>(min_beyond);
}

std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (beyond_ok(n, p, min_beyond)) return p;
  }
  return std::nullopt;
}

LatencySummary summarize(std::vector<double> samples) {
  const Sorted s(std::move(samples));
  LatencySummary out;
  out.count = s.count();
  out.p50 = s.at(50);
  out.p99 = s.reportable(99);
  out.tail_pct = tail_percentile(s.count());
  if (out.tail_pct) out.tail = s.at(*out.tail_pct);
  if (s.count() > 0) {
    out.points.reserve(LatencySummary::kPoints);
    for (std::size_t i = 0; i < LatencySummary::kPoints; ++i) {
      out.points.push_back(*s.at(100.0 * static_cast<double>(i) /
                                 static_cast<double>(LatencySummary::kPoints - 1)));
    }
  }
  return out;
}

std::optional<double> pooled(const std::vector<const LatencySummary*>& reps,
                             double p, std::size_t min_beyond) {
  std::vector<std::pair<double, double>> weighted;  // (value, weight)
  std::size_t total = 0;
  for (const LatencySummary* r : reps) {
    if (r->points.empty()) continue;
    const double w = static_cast<double>(r->count) /
                     static_cast<double>(r->points.size());
    for (double v : r->points) weighted.emplace_back(v, w);
    total += r->count;
  }
  if (!beyond_ok(total, p, min_beyond)) return std::nullopt;
  std::sort(weighted.begin(), weighted.end());
  const double target = p / 100.0 * static_cast<double>(total);
  double cum = 0.0;
  for (const auto& [v, w] : weighted) {
    cum += w;
    if (cum >= target) return v;
  }
  return weighted.back().first;
}

std::optional<double> failed_frac(std::uint64_t attempted,
                                  std::uint64_t succeeded) {
  if (attempted == 0) return std::nullopt;
  const std::uint64_t ok = std::min(succeeded, attempted);
  return static_cast<double>(attempted - ok) / static_cast<double>(attempted);
}

std::optional<double> shortfall_frac(double submitted, double rate_per_s,
                                     double window_s) {
  const double due = rate_per_s * window_s;
  if (due <= 0.0) return std::nullopt;
  return 1.0 - submitted / due;
}

std::optional<double> median(std::vector<double> values) {
  return Sorted(std::move(values)).at(50.0);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Nested children grouped by parent index, clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (!s.nested || s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    out[i] = spans[i].duration() - union_ns;
  }
  return out;
}

}  // namespace perfbench
