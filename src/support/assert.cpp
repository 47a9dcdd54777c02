#include "support/assert.h"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace polaris {

namespace {

std::string format_message(const std::string& cond, const std::string& file,
                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "polaris internal error: assertion `" << cond << "' failed at "
     << file << ":" << line;
  if (!msg.empty()) os << ": " << msg;
  return os.str();
}

bool spec_matches(const std::string& pattern, const std::string& value) {
  return pattern == "*" || pattern == value;
}

}  // namespace

InternalError::InternalError(const std::string& cond, const std::string& file,
                             int line, const std::string& msg)
    : std::logic_error(format_message(cond, file, line, msg)),
      cond_(cond),
      file_(file),
      line_(line) {}

bool InternalError::injected() const {
  return cond_ == detail::kInjectedCond;
}

namespace fault {

InjectionSpec parse_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : spec) {
    if (c == ':') {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);

  if (parts.size() > 3)
    throw UserError("bad fault-injection spec '" + spec +
                    "' (want PASS[:UNIT[:N]])");
  InjectionSpec out;
  if (parts[0].empty())
    throw UserError("bad fault-injection spec '" + spec +
                    "': empty pass name");
  out.pass = parts[0];
  if (parts.size() >= 2 && !parts[1].empty()) out.unit = parts[1];
  if (parts.size() == 3) {
    const std::string& n = parts[2];
    char* end = nullptr;
    long v = n.empty() ? 0 : std::strtol(n.c_str(), &end, 10);
    if (n.empty() || end == nullptr || *end != '\0' || v < 1)
      throw UserError("bad fault-injection spec '" + spec +
                      "': site index must be a positive integer");
    out.site = v;
  }
  // Unit names are canonicalized to lower case in the IR; match likewise.
  for (char& c : out.unit)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

void arm(const InjectionSpec& spec) {
  if (FaultInjector* inj = FaultInjector::current()) inj->arm(spec);
}

void disarm() {
  if (FaultInjector* inj = FaultInjector::current()) inj->disarm();
}

bool armed() {
  FaultInjector* inj = FaultInjector::current();
  return inj != nullptr && inj->armed();
}

void set_scope(const std::string& pass, const std::string& unit) {
  if (FaultInjector* inj = FaultInjector::current())
    inj->set_scope(pass, unit);
}

void clear_scope() {
  if (FaultInjector* inj = FaultInjector::current()) inj->clear_scope();
}

bool consume_boundary_fault() {
  FaultInjector* inj = FaultInjector::current();
  return inj != nullptr && inj->consume_boundary_fault();
}

long sites_in_scope() {
  FaultInjector* inj = FaultInjector::current();
  return inj != nullptr ? inj->sites_in_scope() : 0;
}

}  // namespace fault

void FaultInjector::arm(const fault::InjectionSpec& spec) {
  spec_ = spec;
  armed_ = true;
  scope_active_ = false;
  scope_matches_ = false;
  fired_in_scope_ = false;
  sites_in_scope_ = 0;
}

void FaultInjector::disarm() {
  spec_ = fault::InjectionSpec{};
  armed_ = false;
  scope_active_ = false;
  scope_matches_ = false;
  fired_in_scope_ = false;
  sites_in_scope_ = 0;
}

void FaultInjector::set_scope(const std::string& pass,
                              const std::string& unit) {
  scope_active_ = true;
  scope_matches_ =
      spec_matches(spec_.pass, pass) && spec_matches(spec_.unit, unit);
  fired_in_scope_ = false;
  sites_in_scope_ = 0;
}

void FaultInjector::clear_scope() {
  scope_active_ = false;
  scope_matches_ = false;
  sites_in_scope_ = 0;
}

bool FaultInjector::consume_boundary_fault() {
  if (!armed_ || !scope_active_ || !scope_matches_ || fired_in_scope_)
    return false;
  fired_in_scope_ = true;
  return true;
}

bool FaultInjector::tick() {
  if (!armed_ || !scope_active_ || !scope_matches_ || fired_in_scope_)
    return false;
  if (++sites_in_scope_ != spec_.site) return false;
  fired_in_scope_ = true;
  return true;
}

FaultInjector::Scope::Scope(FaultInjector* injector)
    : prev_(detail::tls_injector) {
  detail::tls_injector = injector;
}

FaultInjector::Scope::~Scope() { detail::tls_injector = prev_; }

namespace detail {

const char* const kInjectedCond = "fault-injection";

bool fault_tick_slow() { return tls_injector->tick(); }

void assert_failed(const char* cond, const char* file, int line,
                   const std::string& msg) {
  throw InternalError(cond, file, line, msg);
}

}  // namespace detail

}  // namespace polaris
