// Event calendar for the discrete-event simulators.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace windim::sim {

/// Future-event list: schedules closures at absolute simulated times and
/// executes them in time order (FIFO among ties, via a sequence number,
/// so simulations are deterministic given the RNG seed).
class Calendar {
 public:
  [[nodiscard]] double now() const noexcept { return now_; }

  /// Schedules `action` to run `delay` seconds from now (delay >= 0).
  void schedule(double delay, std::function<void()> action);

  /// Runs events until the calendar is empty or the next event is later
  /// than `t_end`; the clock finishes at exactly `t_end`.
  void run_until(double t_end);

  /// Executes the single earliest event; returns false if none.
  bool step();

  [[nodiscard]] std::size_t pending() const noexcept { return events_.size(); }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> action;
    bool operator>(const Event& other) const noexcept {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  // Min-heap on (time, seq) under std::greater<>, kept in a plain vector
  // (std::push_heap/std::pop_heap) so step() can move the earliest
  // event's closure out instead of copying it.
  std::vector<Event> events_;
};

}  // namespace windim::sim
