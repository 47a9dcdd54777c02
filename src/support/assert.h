// Polaris assertion and internal-error machinery.
//
// The Polaris paper (Section 2) stresses "extensive error checking throughout
// the system through the liberal use of assertions": every assumed condition
// is stated explicitly in a p_assert() which reports an error at run time if
// the assumption is violated.  We reproduce that discipline here.  Unlike
// <cassert>, p_assert is always on (analysis correctness matters more than
// the last few percent of compile speed) and failures raise a typed
// exception carrying the source location so tests can observe them.
//
// Deterministic fault injection: every p_assert site doubles as an
// injection point.  When a FaultInjector is armed with a "PASS[:UNIT[:N]]"
// spec (the `-fault-inject=` flag / POLARIS_FAULT_INJECT env var) and the
// pass manager has declared the current (pass, unit) scope, the Nth
// assertion executed inside each matching scope throws an InternalError
// even though its condition holds — so the rollback/recovery path is
// exercisable in tests and CI instead of only on real bugs.  If fewer than
// N sites execute before the pass finishes, the pass manager forces the
// fault at the unit boundary (consume_boundary_fault), so an armed
// injection always fires for every matching scope.
//
// Ownership: each CompileContext owns a FaultInjector (arming state + per-
// scope counters), so concurrent per-unit shards count injection sites
// independently.  Because p_assert sites are macros with no context
// parameter, the active injector is reached through a thread-local pointer
// (FaultInjector::current / FaultInjector::Scope) bound by the pass
// manager around each pass invocation.  The pointer is an inline
// thread_local defined in this header, so an unbound thread pays one TLS
// load and one predictable branch per site, with no call.
#pragma once

#include <stdexcept>
#include <string>

namespace polaris {

/// Raised when a p_assert fails, i.e. an internal consistency error.
class InternalError : public std::logic_error {
 public:
  InternalError(const std::string& cond, const std::string& file, int line,
                const std::string& msg);

  const std::string& condition() const { return cond_; }
  const std::string& file() const { return file_; }
  int line() const { return line_; }

  /// True when this error was raised by deterministic fault injection
  /// rather than a genuine assertion failure.
  bool injected() const;

 private:
  std::string cond_;
  std::string file_;
  int line_;
};

/// Raised for errors in user input (bad Fortran source, unsupported
/// constructs) as opposed to bugs in Polaris itself.
class UserError : public std::runtime_error {
 public:
  explicit UserError(const std::string& msg) : std::runtime_error(msg) {}
};

namespace fault {

/// Parsed "PASS[:UNIT[:N]]" injection spec.  PASS and UNIT may be "*"
/// (match anything); UNIT defaults to "*", N to 1 (1-based site index).
struct InjectionSpec {
  std::string pass = "*";
  std::string unit = "*";
  long site = 1;
};

/// Parses a spec string; throws UserError on malformed input (empty pass,
/// non-numeric or non-positive N, trailing components).
InjectionSpec parse_spec(const std::string& spec);

}  // namespace fault

class FaultInjector;

namespace detail {
/// The injector bound to the calling thread (see FaultInjector::Scope).
inline thread_local FaultInjector* tls_injector = nullptr;
}  // namespace detail

/// One compilation's (or one unit shard's) fault-injection state: the
/// armed spec plus the per-scope site counter.  Owned by a CompileContext;
/// only ever driven by the thread currently bound to it.
class FaultInjector {
 public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms injection for this injector.  Each (pass, unit) scope entered
  /// via set_scope counts its own assertion sites from 1 and fires at most
  /// once.
  void arm(const fault::InjectionSpec& spec);
  void disarm();
  bool armed() const { return armed_; }

  const fault::InjectionSpec& spec() const { return spec_; }

  /// Declares the (pass, unit) the currently executing code is attributed
  /// to; the pass manager brackets every pass invocation with these.  The
  /// site counter restarts on every set_scope call.
  void set_scope(const std::string& pass, const std::string& unit);
  void clear_scope();

  /// True when injection is armed for the current scope but has not fired
  /// there yet; marks the scope as fired.  The pass manager calls this at
  /// the unit boundary so a matching pass with fewer than N assertion
  /// sites still faults deterministically.
  bool consume_boundary_fault();

  /// Assertion sites executed inside the current scope (diagnostics/tests).
  long sites_in_scope() const { return sites_in_scope_; }

  /// Counts one assertion site; true when the fault should fire here.
  bool tick();

  /// The injector bound to the calling thread (null when none) — the
  /// bridge from p_assert macro sites, which cannot take a parameter, to
  /// the per-compile state.  Bind with FaultInjector::Scope.
  static FaultInjector* current() { return detail::tls_injector; }

  /// RAII thread binding.  Nested scopes restore the previous binding.
  class Scope {
   public:
    explicit Scope(FaultInjector* injector);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    FaultInjector* prev_;
  };

 private:
  fault::InjectionSpec spec_;
  bool armed_ = false;
  bool scope_active_ = false;
  bool scope_matches_ = false;
  bool fired_in_scope_ = false;
  long sites_in_scope_ = 0;
};

namespace fault {

/// Back-compat shims over the thread-current injector (tests and simple
/// single-compile tools).  No-ops / false / 0 when no injector is bound.
void arm(const InjectionSpec& spec);
void disarm();
bool armed();
void set_scope(const std::string& pass, const std::string& unit);
void clear_scope();
bool consume_boundary_fault();
long sites_in_scope();

}  // namespace fault

namespace detail {
[[noreturn]] void assert_failed(const char* cond, const char* file, int line,
                                const std::string& msg);
/// Condition string used for injected failures; InternalError::injected()
/// keys off it.
extern const char* const kInjectedCond;

bool fault_tick_slow();
/// Per-site injection hook: one thread-local load + branch when no armed
/// injector is bound to the thread.
inline bool fault_tick() {
  FaultInjector* injector = FaultInjector::current();
  return injector != nullptr && injector->armed() && fault_tick_slow();
}
}  // namespace detail

}  // namespace polaris

/// Polaris assertion: always enabled, throws polaris::InternalError on
/// failure.  Use for conditions that indicate a bug in the compiler.
/// Every site is also a deterministic fault-injection point (see above).
#define p_assert(cond)                                                      \
  do {                                                                      \
    if (::polaris::detail::fault_tick())                                    \
      ::polaris::detail::assert_failed(::polaris::detail::kInjectedCond,    \
                                       __FILE__, __LINE__,                  \
                                       "deterministic fault injection");    \
    if (!(cond))                                                            \
      ::polaris::detail::assert_failed(#cond, __FILE__, __LINE__, "");      \
  } while (0)

/// p_assert with an explanatory message (may use ostream-style formatting
/// via std::string concatenation at the call site).  The message is built
/// only once the condition has failed, in a cold out-of-line lambda, so a
/// site costs its caller no more code than p_assert.
#define p_assert_msg(cond, msg)                                             \
  do {                                                                      \
    if (::polaris::detail::fault_tick())                                    \
      ::polaris::detail::assert_failed(::polaris::detail::kInjectedCond,    \
                                       __FILE__, __LINE__,                  \
                                       "deterministic fault injection");    \
    if (!(cond)) [[unlikely]]                                               \
      [&]() __attribute__((cold, noinline, noreturn)) {                     \
        ::polaris::detail::assert_failed(#cond, __FILE__, __LINE__, (msg)); \
      }();                                                                  \
  } while (0)

/// Marks an unreachable code path.
#define p_unreachable(msg)                                                  \
  ::polaris::detail::assert_failed("unreachable", __FILE__, __LINE__, (msg))
