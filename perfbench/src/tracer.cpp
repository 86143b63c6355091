#include "tracer.hpp"

#include <fstream>
#include <utility>

#include "util/check.hpp"
#include "util/json.hpp"

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::begin(std::string name, std::string job) {
  Span s;
  s.name = std::move(name);
  s.job = std::move(job);
  s.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  child_s_.push_back(0.0);
  open_.push_back(index);
  spans_.back().start = now();
  return index;
}

void Tracer::end(int index) {
  const double t = now();
  CKP_CHECK_MSG(!open_.empty() && open_.back() == index,
                "trace spans must close innermost first");
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = t;
  if (s.parent >= 0) {
    child_s_[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
}

double Tracer::duration(int index) const {
  const Span& s = spans_[static_cast<std::size_t>(index)];
  return s.end - s.start;
}

double Tracer::self_time(int index) const {
  return duration(index) - child_s_[static_cast<std::size_t>(index)];
}

std::map<std::string, SpanStats> Tracer::stats() const {
  std::map<std::string, SpanStats> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanStats& s = out[spans_[i].name];
    s.count += 1;
    s.total_s += duration(static_cast<int>(i));
    s.self_s += self_time(static_cast<int>(i));
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  ckp::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("pid").value(1);
    w.key("tid").value(1);
    w.key("ts").value(s.start * 1e6);
    w.key("dur").value((s.end - s.start) * 1e6);
    w.key("args").begin_object();
    w.key("job").value(s.job);
    w.key("span").value(static_cast<std::int64_t>(i));
    w.key("parent").value(s.parent);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  CKP_CHECK_MSG(out.good(), "cannot write trace file " << path);
  out << w.str() << '\n';
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string job)
    : tracer_(tracer) {
  if (tracer_ != nullptr) index_ = tracer_->begin(std::move(name), std::move(job));
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->end(index_);
}

}  // namespace perfbench
