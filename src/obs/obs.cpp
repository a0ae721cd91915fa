#include "obs/obs.hpp"

#include "util/assert.hpp"

namespace nab::obs {

const char* gauge_name(gauge g) {
  switch (g) {
    case gauge::quorum_slack: return "margin_quorum_slack";
    case gauge::hold_surplus: return "margin_hold_surplus";
    case gauge::dispute_headroom: return "margin_dispute_headroom";
    case gauge::retry_headroom: return "margin_retry_headroom";
    case gauge::count_: break;
  }
  return "unknown_gauge";
}

collector::collector() : epoch_(std::chrono::steady_clock::now()) {
  gauges_.fill(gauge_unset);
}

double collector::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int collector::open_span(std::string name, double tau_begin) {
  span_record rec;
  rec.id = static_cast<int>(spans_.size());
  rec.parent = current_span();
  rec.depth = static_cast<int>(open_stack_.size());
  rec.name = std::move(name);
  rec.tau_begin = tau_begin;
  rec.tau_end = tau_begin;
  rec.wall_begin = now();
  rec.wall_end = rec.wall_begin;
  spans_.push_back(std::move(rec));
  open_stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void collector::close_span(int id, double tau_end) {
  NAB_ASSERT(!open_stack_.empty() && open_stack_.back() == id,
             "spans must close LIFO (innermost first)");
  open_stack_.pop_back();
  span_record& rec = spans_[static_cast<std::size_t>(id)];
  rec.tau_end = tau_end;
  rec.wall_end = now();
}

void collector::reset() {
  NAB_ASSERT(open_stack_.empty(), "collector reset with spans still open");
  counters_ = {};
  gauges_.fill(gauge_unset);
  spans_.clear();
}

namespace {
thread_local collector* ambient = nullptr;
}  // namespace

collector* ambient_collector() { return ambient; }

scoped_collector::scoped_collector(collector* c) : previous_(ambient) {
  ambient = c;
}

scoped_collector::~scoped_collector() { ambient = previous_; }

scoped_span::scoped_span(const char* name, double tau_begin)
    : col_(ambient_collector()), tau_end_(tau_begin) {
  if (col_ != nullptr) id_ = col_->open_span(name, tau_begin);
}

scoped_span::~scoped_span() {
  if (col_ != nullptr) col_->close_span(id_, tau_end_);
}

}  // namespace nab::obs
