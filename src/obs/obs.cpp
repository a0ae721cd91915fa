#include "obs/obs.hpp"

#include "util/assert.hpp"

namespace nab::obs {

collector::collector() : epoch_(std::chrono::steady_clock::now()) {}

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
  gauges_ = {};
  spans_.clear();
}

scoped_span::scoped_span(const char* name, double tau_begin)
    : col_(ambient_collector()), tau_end_(tau_begin) {
  if (col_ != nullptr) id_ = col_->open_span(name, tau_begin);
}

scoped_span::~scoped_span() {
  if (col_ != nullptr) col_->close_span(id_, tau_end_);
}

}  // namespace nab::obs
