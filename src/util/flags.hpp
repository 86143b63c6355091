// Minimal command-line flag parsing for bench and example binaries.
//
// Supports --name=value and --name value forms plus boolean --name. Unknown
// flags are an error so typos in sweep scripts fail loudly, and so is
// giving the same flag twice: silent last-wins would let a sweep script
// that appends `--seeds=100` after a template's `--seeds=2` look like it
// ran the big sweep while a human reading the command line disagrees with
// the program about which value won.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ckp {

class Flags {
 public:
  // Parses argv; throws CheckFailure on malformed input.
  Flags(int argc, const char* const* argv);

  // Typed getters with defaults. Each getter records the flag as known.
  std::int64_t get_int(const std::string& name, std::int64_t def);
  double get_double(const std::string& name, double def);
  std::string get_string(const std::string& name, const std::string& def);
  bool get_bool(const std::string& name, bool def);

  // The worker-thread count for parallel engine rounds and trial fan-out:
  // --threads if given, else the CKP_THREADS environment variable, else
  // `def`. Always >= 1.
  int get_threads(int def = 1);

  // Comma-separated selection flag (e.g. --algo=luby,greedy): absent means
  // "all of `allowed`"; when given, every item must be a member of `allowed`
  // — empty items and unknown names fail loudly with the valid set in the
  // message (same fail-on-typo stance as check_unknown). Order and
  // duplicates are preserved as written.
  std::vector<std::string> get_list(const std::string& name,
                                    const std::vector<std::string>& allowed);

  // Comma-separated free-form list (no fixed universe, e.g. --metrics=...):
  // absent means `def`; when given, items pass through the same strict
  // splitter as get_list, so empty items — including a lone trailing comma
  // — are rejected on every list path rather than silently dropped.
  std::vector<std::string> get_strings(const std::string& name,
                                       const std::vector<std::string>& def);

  // The strict splitter behind get_list/get_strings, exposed for tools that
  // read list values from places other than argv. Rejects empty values and
  // empty items ("a,", ",a", "a,,b", ",") with a CheckFailure naming `name`.
  static std::vector<std::string> split_list(const std::string& name,
                                             const std::string& value);

  // Call after all getters: throws if the command line contained flags
  // that no getter asked about.
  void check_unknown() const;

 private:
  std::optional<std::string> raw(const std::string& name);

  std::map<std::string, std::string> values_;
  std::map<std::string, bool> consumed_;
};

}  // namespace ckp
