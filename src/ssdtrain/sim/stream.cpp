#include "ssdtrain/sim/stream.hpp"

#include <utility>

#include "ssdtrain/util/check.hpp"

namespace ssdtrain::sim {

Stream::Stream(Simulator& sim, std::string name)
    : sim_(sim), name_(std::move(name)), name_label_(name_) {}

CompletionPtr Stream::fold_deps(std::span<const CompletionPtr> deps) {
  // A fired wait constrains nothing: dropping it keeps the list bounded by
  // the waits still outstanding. Every combiner skips fired deps anyway.
  std::erase_if(pending_waits_,
                [](const CompletionPtr& w) { return w->done(); });
  if (!pending_waits_.empty()) {
    deps_scratch_.assign(deps.begin(), deps.end());
    deps_scratch_.insert(deps_scratch_.end(), pending_waits_.begin(),
                         pending_waits_.end());
    deps = deps_scratch_;
  }
  const UnfiredDeps unfired = find_unfired(deps);
  CompletionPtr folded;
  if (unfired.count == 1) {
    folded = *unfired.last;
  } else if (unfired.count > 1) {
    folded = when_all(sim_, deps, name_label_);
  }
  // The scratch holds no references past the fold.
  deps_scratch_.clear();
  return folded;
}

CompletionPtr Stream::push(util::Label label, util::Seconds duration,
                           std::span<const CompletionPtr> deps,
                           bool detached) {
  util::expects(duration >= 0.0, "negative task duration");
  Task task;
  task.duration = duration;
  task.deps = fold_deps(deps);
  if (!detached) task.done = Completion::create(sim_, name_label_);
  CompletionPtr done = task.done;
  // The lazy-label contract, one layer up: the label renders to text only
  // when someone is actually watching.
  if (observer_) labels_.emplace_back(label.str());
  queue_.push_back(std::move(task));
  pump();
  return done;
}

CompletionPtr Stream::enqueue(util::Label label, util::Seconds duration,
                              std::span<const CompletionPtr> deps) {
  return push(label, duration, deps, false);
}

void Stream::enqueue_detached(util::Label label, util::Seconds duration,
                              std::span<const CompletionPtr> deps) {
  push(label, duration, deps, true);
}

CompletionPtr Stream::record_marker(std::string_view label) {
  return enqueue(util::Label::view(label), 0.0);
}

void Stream::wait_for(CompletionPtr dep) {
  util::expects(static_cast<bool>(dep), "null dependency");
  pending_waits_.push_back(std::move(dep));
}

void Stream::pump() {
  if (running_ || queue_.empty()) return;
  Task& head = queue_.front();
  if (head.deps && !head.deps->done()) {
    if (!waiting_registered_) {
      waiting_registered_ = true;
      head.deps->add_waiter([this]() {
        waiting_registered_ = false;
        pump();
      });
    }
    return;
  }
  Task task = std::move(queue_.front());
  queue_.pop_front();
  if (observer_ && !labels_.empty()) {
    current_label_ = std::move(labels_.front());
    labels_.pop_front();
  }
  begin(std::move(task));
}

void Stream::begin(Task task) {
  running_ = true;
  ++run_token_;
  current_started_ = sim_.now();
  current_done_ = std::move(task.done);
  sim_.schedule_after(task.duration, FinishToken{this, run_token_});
}

void Stream::finish_task(std::uint64_t token) {
  util::check(running_ && token == run_token_, "stream task finished twice");
  busy_time_ += sim_.now() - current_started_;
  ++tasks_completed_;
  CompletionPtr done = std::move(current_done_);
  if (observer_) {
    observer_(TaskRecord{std::move(current_label_), current_started_,
                         sim_.now()});
  }
  // Unconditional: a label recorded while observed must not leak onto a
  // later task finishing after an observer detach/re-attach cycle.
  current_label_.clear();
  running_ = false;
  if (done) done->fire();  // null for detached tasks
  pump();
}

}  // namespace ssdtrain::sim
