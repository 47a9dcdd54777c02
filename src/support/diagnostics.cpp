#include "support/diagnostics.h"

#include <algorithm>
#include <ostream>

#include "support/json.h"

namespace polaris {

const char* to_string(RemarkKind kind) {
  switch (kind) {
    case RemarkKind::None: return "none";
    case RemarkKind::Parallelized: return "parallelized";
    case RemarkKind::Missed: return "missed";
    case RemarkKind::Analysis: return "analysis";
  }
  return "?";
}

namespace {

/// A diagnostic without a remark payload.
Diagnostic plain(DiagSeverity severity, const std::string& pass,
                 const std::string& context, const std::string& message) {
  Diagnostic d;
  d.severity = severity;
  d.pass = pass;
  d.context = context;
  d.message = message;
  return d;
}

}  // namespace

void Diagnostics::note(const std::string& pass, const std::string& context,
                       const std::string& message) {
  diags_.push_back(plain(DiagSeverity::Note, pass, context, message));
}

void Diagnostics::warning(const std::string& pass, const std::string& context,
                          const std::string& message) {
  diags_.push_back(plain(DiagSeverity::Warning, pass, context, message));
}

void Diagnostics::error(const std::string& pass, const std::string& context,
                        const std::string& message) {
  diags_.push_back(plain(DiagSeverity::Error, pass, context, message));
}

void Diagnostics::remark(RemarkKind kind, const std::string& pass,
                         const std::string& context,
                         const std::string& reason,
                         const std::string& message,
                         std::vector<RemarkArg> args) {
  Diagnostic d = plain(DiagSeverity::Note, pass, context, message);
  d.remark = kind;
  d.reason = reason;
  d.args = std::move(args);
  diags_.push_back(std::move(d));
}

std::size_t Diagnostics::count(DiagSeverity sev) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [&](const Diagnostic& d) { return d.severity == sev; }));
}

std::vector<const Diagnostic*> Diagnostics::remarks() const {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : diags_)
    if (d.remark != RemarkKind::None) out.push_back(&d);
  return out;
}

bool Diagnostics::contains(const std::string& needle) const {
  return std::any_of(diags_.begin(), diags_.end(), [&](const Diagnostic& d) {
    return d.message.find(needle) != std::string::npos;
  });
}

void Diagnostics::print(std::ostream& os) const {
  for (const Diagnostic& d : diags_) {
    switch (d.severity) {
      case DiagSeverity::Note: os << "note"; break;
      case DiagSeverity::Warning: os << "warning"; break;
      case DiagSeverity::Error: os << "error"; break;
    }
    os << " [" << d.pass << "] " << d.context << ": " << d.message << "\n";
  }
}

void Diagnostics::print_remarks(std::ostream& os) const {
  for (const Diagnostic* d : remarks()) {
    JsonValue obj = JsonValue::object();
    obj.set("kind", JsonValue::str(to_string(d->remark)));
    obj.set("pass", JsonValue::str(d->pass));
    obj.set("context", JsonValue::str(d->context));
    obj.set("reason", JsonValue::str(d->reason));
    obj.set("message", JsonValue::str(d->message));
    JsonValue args = JsonValue::object();
    for (const RemarkArg& a : d->args)
      args.set(a.key, JsonValue::str(a.value));
    obj.set("args", std::move(args));
    os << obj.serialize() << "\n";
  }
}

}  // namespace polaris
