#include "sim/calendar.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace windim::sim {

void Calendar::schedule(double delay, std::function<void()> action) {
  if (!(delay >= 0.0)) {
    throw std::invalid_argument("Calendar::schedule: negative delay");
  }
  events_.push_back(Event{now_ + delay, next_seq_++, std::move(action)});
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

bool Calendar::step() {
  if (events_.empty()) return false;
  // (time, seq) is a total order, so the event popped here does not
  // depend on the heap's internal layout.  The action may schedule new
  // events, so it is moved out of the vector before it runs.
  std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
  Event ev = std::move(events_.back());
  events_.pop_back();
  now_ = ev.time;
  ev.action();
  return true;
}

void Calendar::run_until(double t_end) {
  while (!events_.empty() && events_.front().time <= t_end) {
    step();
  }
  if (now_ < t_end) now_ = t_end;
}

}  // namespace windim::sim
