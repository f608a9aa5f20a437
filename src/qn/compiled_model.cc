#include "qn/compiled_model.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/checked_math.h"

namespace windim::qn {
namespace {

/// R x N (or any layout product) with an overflow-checked multiply;
/// throws the typed OverflowError instead of wrapping.
std::size_t checked_cells(std::size_t a, std::size_t b, const char* what) {
  std::size_t out = 0;
  if (util::mul_overflows(a, b, out)) {
    throw OverflowError(std::string("CompiledModel::compile: ") + what +
                        " size overflows std::size_t");
  }
  return out;
}

}  // namespace

CompiledModel CompiledModel::compile(const NetworkModel& model,
                                     CompileOptions options) {
  model.validate();

  static std::atomic<std::uint64_t> next_id{1};
  CompiledModel c;
  c.id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  c.source_ = model;
  const int N = c.num_stations_ = model.num_stations();
  const int R = c.num_chains_ = model.num_chains();
  c.all_closed_ = model.all_closed();

  const std::size_t cells = c.cells_ =
      checked_cells(static_cast<std::size_t>(R), static_cast<std::size_t>(N),
                    "chain x station matrix");
  c.demand_cm_.assign(cells, 0.0);
  c.service_time_cm_.assign(cells, 0.0);
  c.visit_ratio_cm_.assign(cells, 0.0);
  for (int r = 0; r < R; ++r) {
    for (int n = 0; n < N; ++n) {
      const std::size_t idx = static_cast<std::size_t>(r) * N + n;
      c.demand_cm_[idx] = model.demand(r, n);
      c.service_time_cm_[idx] = model.service_time(r, n);
      c.visit_ratio_cm_[idx] = model.visit_ratio(r, n);
    }
  }

  c.station_kind_.resize(static_cast<std::size_t>(N));
  c.rate_offset_.assign(static_cast<std::size_t>(N) + 1, 0);
  for (int n = 0; n < N; ++n) {
    const Station& s = model.station(n);
    c.station_kind_[static_cast<std::size_t>(n)] =
        s.is_delay() ? StationKind::kDelay
        : s.is_fixed_rate() ? StationKind::kFixedRate
                            : StationKind::kQueueDependent;
    c.has_queue_dependent_ =
        c.has_queue_dependent_ ||
        c.station_kind_[static_cast<std::size_t>(n)] ==
            StationKind::kQueueDependent;
    for (double m : s.rate_multipliers) c.rate_multipliers_.push_back(m);
    c.rate_offset_[static_cast<std::size_t>(n) + 1] = c.rate_multipliers_.size();
  }

  // Chain -> stations CSR, matching NetworkModel::stations_of (visit
  // membership, ascending station order).
  c.chain_station_offset_.assign(static_cast<std::size_t>(R) + 1, 0);
  for (int r = 0; r < R; ++r) {
    for (int n = 0; n < N; ++n) {
      if (model.visits(r, n)) c.chain_station_ids_.push_back(n);
    }
    c.chain_station_offset_[static_cast<std::size_t>(r) + 1] =
        c.chain_station_ids_.size();
  }
  // Station -> chains CSR, matching NetworkModel::chains_visiting.
  c.station_chain_offset_.assign(static_cast<std::size_t>(N) + 1, 0);
  for (int n = 0; n < N; ++n) {
    for (int r = 0; r < R; ++r) {
      if (model.visits(r, n)) c.station_chain_ids_.push_back(r);
    }
    c.station_chain_offset_[static_cast<std::size_t>(n) + 1] =
        c.station_chain_ids_.size();
  }
  // Packed visit layout: slot v is entry v of the station -> chains CSR.
  // The station-major walk reaches each chain's stations in ascending
  // order, so a per-chain cursor fills its slot map aligned with
  // stations_of(r).
  c.visit_demand_.resize(c.station_chain_ids_.size());
  c.chain_visit_slot_.resize(c.chain_station_ids_.size());
  std::vector<std::size_t> cursor(c.chain_station_offset_.begin(),
                                  c.chain_station_offset_.end() - 1);
  for (int n = 0; n < N; ++n) {
    for (std::size_t v = c.visit_offset(n); v < c.visit_offset(n + 1); ++v) {
      const int r = c.station_chain_ids_[v];
      c.visit_demand_[v] = c.demand(r, n);
      c.chain_visit_slot_[cursor[static_cast<std::size_t>(r)]++] = v;
    }
  }

  c.cycle_time_.assign(static_cast<std::size_t>(R), 0.0);
  c.bottleneck_.assign(static_cast<std::size_t>(R), -1);
  c.max_demand_.assign(static_cast<std::size_t>(R), 0.0);
  c.delay_demand_.assign(static_cast<std::size_t>(R), 0.0);
  for (int r = 0; r < R; ++r) {
    double cycle = 0.0;
    double best = 0.0;
    double delay = 0.0;
    int bottleneck = -1;
    for (const int n : c.stations_of(r)) {
      const double d = c.demand(r, n);
      cycle += d;
      if (c.is_delay(n)) delay += d;
      if (d > best) {
        best = d;
        bottleneck = n;
      }
    }
    c.cycle_time_[static_cast<std::size_t>(r)] = cycle;
    c.bottleneck_[static_cast<std::size_t>(r)] = bottleneck;
    c.max_demand_[static_cast<std::size_t>(r)] = best;
    c.delay_demand_[static_cast<std::size_t>(r)] = delay;
  }

  for (int r = 0; r < R; ++r) {
    if (model.chain(r).type == ChainType::kClosed) {
      c.base_populations_.push_back(model.chain(r).population);
    } else {
      c.base_populations_.push_back(0);
    }
  }

  if (!options.semiclosed_arrival_rate.empty()) {
    if (options.semiclosed_arrival_rate.size() !=
        static_cast<std::size_t>(R)) {
      throw std::invalid_argument(
          "CompiledModel::compile: semiclosed arrival-rate vector size "
          "mismatch");
    }
    c.semiclosed_rate_ = std::move(options.semiclosed_arrival_rate);
  }
  if (!options.semiclosed_min_population.empty()) {
    if (options.semiclosed_min_population.size() !=
        static_cast<std::size_t>(R)) {
      throw std::invalid_argument(
          "CompiledModel::compile: semiclosed min-population vector size "
          "mismatch");
    }
    c.semiclosed_min_ = std::move(options.semiclosed_min_population);
  }
  return c;
}

double CompiledModel::rate_multiplier(int n, int j) const {
  if (j <= 0) return 0.0;
  const StationKind kind = station_kind(n);
  if (kind == StationKind::kDelay) return j;
  if (kind == StationKind::kFixedRate) return 1.0;
  const std::size_t begin = rate_offset_[static_cast<std::size_t>(n)];
  const std::size_t size = rate_offset_[static_cast<std::size_t>(n) + 1] - begin;
  const std::size_t idx =
      std::min(static_cast<std::size_t>(j) - 1, size - 1);
  return rate_multipliers_[begin + idx];
}

}  // namespace windim::qn
