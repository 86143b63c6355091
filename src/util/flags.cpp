#include "util/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ckp {

namespace {

// strtoll with full-token validation: rejects empty values (`--n=`), partial
// parses, and out-of-range input (strtoll silently clamps to INT64_MIN/MAX
// and sets ERANGE, which the seed version ignored).
std::int64_t parse_int_value(const std::string& name, const std::string& v) {
  CKP_CHECK_MSG(!v.empty(), "flag --" << name << " has an empty value");
  errno = 0;
  char* end = nullptr;
  const std::int64_t out = std::strtoll(v.c_str(), &end, 10);
  CKP_CHECK_MSG(end != v.c_str() && end != nullptr && *end == '\0',
                "flag --" << name << " is not an integer: " << v);
  CKP_CHECK_MSG(errno != ERANGE,
                "flag --" << name << " is out of range for int64: " << v);
  return out;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    CKP_CHECK_MSG(arg.rfind("--", 0) == 0, "expected --flag, got " << arg);
    arg = arg.substr(2);
    std::string name;
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";  // bare boolean flag
    }
    // Duplicates are an error, not last-wins: a command line where --seeds
    // appears twice has two plausible readings, and silently picking one
    // makes sweep-script template bugs invisible.
    const bool inserted = values_.emplace(name, value).second;
    CKP_CHECK_MSG(inserted, "flag --" << name << " given more than once");
  }
}

std::optional<std::string> Flags::raw(const std::string& name) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def) {
  const auto v = raw(name);
  if (!v) return def;
  return parse_int_value(name, *v);
}

double Flags::get_double(const std::string& name, double def) {
  const auto v = raw(name);
  if (!v) return def;
  CKP_CHECK_MSG(!v->empty(), "flag --" << name << " has an empty value");
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  CKP_CHECK_MSG(end != v->c_str() && end != nullptr && *end == '\0',
                "flag --" << name << " is not a number: " << *v);
  // Overflow clamps to ±HUGE_VAL with ERANGE; underflow-to-denormal also
  // sets ERANGE but yields a usable value, so only overflow is rejected.
  CKP_CHECK_MSG(!(errno == ERANGE && std::isinf(out)),
                "flag --" << name << " is out of range for double: " << *v);
  return out;
}

std::string Flags::get_string(const std::string& name, const std::string& def) {
  const auto v = raw(name);
  return v ? *v : def;
}

bool Flags::get_bool(const std::string& name, bool def) {
  const auto v = raw(name);
  if (!v) return def;
  if (*v == "true" || *v == "1") return true;
  if (*v == "false" || *v == "0") return false;
  CKP_CHECK_MSG(false, "flag --" << name << " is not a boolean: " << *v);
  return def;
}

int Flags::get_threads(int def) {
  const auto v = raw("threads");
  if (!v) {
    const int env = env_thread_count();
    return env != 0 ? env : std::max(def, 1);
  }
  const std::int64_t out = parse_int_value("threads", *v);
  CKP_CHECK_MSG(out >= 1 && out <= 1 << 16,
                "flag --threads is not a positive thread count: " << *v);
  return static_cast<int>(out);
}

std::vector<std::string> Flags::split_list(const std::string& name,
                                           const std::string& value) {
  CKP_CHECK_MSG(!value.empty(), "flag --" << name << " has an empty value");
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item =
        value.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
    CKP_CHECK_MSG(!item.empty(),
                  "flag --" << name << " has an empty item: " << value);
    out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<std::string> Flags::get_list(
    const std::string& name, const std::vector<std::string>& allowed) {
  const auto v = raw(name);
  if (!v) return allowed;
  const std::vector<std::string> out = split_list(name, *v);
  for (const std::string& item : out) {
    if (std::find(allowed.begin(), allowed.end(), item) == allowed.end()) {
      std::string valid;
      for (const auto& a : allowed) {
        if (!valid.empty()) valid += ", ";
        valid += a;
      }
      CKP_CHECK_MSG(false, "flag --" << name << " has unknown item \"" << item
                                     << "\"; valid: " << valid);
    }
  }
  return out;
}

std::vector<std::string> Flags::get_strings(
    const std::string& name, const std::vector<std::string>& def) {
  const auto v = raw(name);
  if (!v) return def;
  return split_list(name, *v);
}

void Flags::check_unknown() const {
  for (const auto& [name, value] : values_) {
    CKP_CHECK_MSG(consumed_.contains(name), "unknown flag --" << name);
  }
}

}  // namespace ckp
