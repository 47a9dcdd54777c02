// Diagnostics sink: collects notes/warnings/errors emitted by passes.
//
// Polaris reports, per loop, why it could or could not parallelize.  Passes
// write structured messages here; the driver renders them in its compilation
// report and tests assert on their presence.
//
// Beyond free-text messages, a diagnostic can be a *structured
// optimization remark* (the LLVM opt-remark idiom): a RemarkKind
// (Parallelized / Missed / Analysis), a machine-readable kebab-case
// reason code, and typed key-value args naming the loop, variable,
// dependence pair, or test that decided the outcome.  Remarks render as
// ordinary notes in the text views and as a JSONL stream with
// `-remarks=FILE`, and back every LoopReport::serial_reason with a
// queryable reason code.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace polaris {

enum class DiagSeverity { Note, Warning, Error };

/// Structured-remark classification (None for plain diagnostics).
enum class RemarkKind {
  None,          ///< not a remark: a plain free-text diagnostic
  Parallelized,  ///< a transformation fired (loop parallelized, ...)
  Missed,        ///< an optimization was blocked; reason says why
  Analysis,      ///< neutral analysis fact worth reporting
};

const char* to_string(RemarkKind kind);

/// One key-value remark argument ("variable" -> "ind", "test" -> "range").
struct RemarkArg {
  std::string key;
  std::string value;
};

struct Diagnostic {
  DiagSeverity severity = DiagSeverity::Note;
  std::string pass;     // which pass emitted it, e.g. "rangetest"
  std::string context;  // e.g. "MAIN/do_10" — unit and loop
  std::string message;
  // --- structured-remark payload (remark != None only) ---------------------
  RemarkKind remark = RemarkKind::None;
  std::string reason;           ///< machine-readable code, e.g. "loop-io"
  std::vector<RemarkArg> args;  ///< typed key-value arguments
};

/// Accumulates diagnostics; owned by the driver, passed by reference into
/// passes (per the Polaris ownership convention, a T& argument does not
/// transfer ownership).
class Diagnostics {
 public:
  void note(const std::string& pass, const std::string& context,
            const std::string& message);
  void warning(const std::string& pass, const std::string& context,
               const std::string& message);
  void error(const std::string& pass, const std::string& context,
             const std::string& message);

  /// Emits a structured remark (severity Note).  `reason` is the stable
  /// machine-readable code; `message` the human rendering.
  void remark(RemarkKind kind, const std::string& pass,
              const std::string& context, const std::string& reason,
              const std::string& message,
              std::vector<RemarkArg> args = {});

  const std::vector<Diagnostic>& all() const { return diags_; }
  std::size_t count(DiagSeverity sev) const;

  /// Remark-kind diagnostics only (the `-remarks=` stream).
  std::vector<const Diagnostic*> remarks() const;

  /// True if any diagnostic's message contains `needle` (test helper).
  bool contains(const std::string& needle) const;

  /// Appends every diagnostic of `other` in order (unit-shard merge).
  void append(const Diagnostics& other) {
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
  }

  void clear() { diags_.clear(); }
  void print(std::ostream& os) const;
  /// Writes the remarks stream: one JSON object per line, with kind,
  /// pass, context, reason, message, and args.
  void print_remarks(std::ostream& os) const;

 private:
  std::vector<Diagnostic> diags_;
};

}  // namespace polaris
