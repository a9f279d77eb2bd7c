// Tiny command-line flag parser for the example binaries and bench
// harnesses.  Supports --name=value and --name value forms plus boolean
// switches (--verbose); a switch followed by a literal true, false, 0 or
// 1 takes it as its value (--verbose false).  Unknown flags are an error
// so typos surface.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace rap::util {

class FlagParser {
 public:
  /// Register flags before parse(); each has a default and a help line.
  void addString(const std::string& name, std::string default_value,
                 std::string help);
  void addInt(const std::string& name, std::int64_t default_value,
              std::string help);
  void addDouble(const std::string& name, double default_value,
                 std::string help);
  void addBool(const std::string& name, bool default_value, std::string help);

  /// Parses argv; positional arguments are collected in positional().
  Status parse(int argc, const char* const* argv);

  std::string getString(const std::string& name) const;
  std::int64_t getInt(const std::string& name) const;
  double getDouble(const std::string& name) const;
  bool getBool(const std::string& name) const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Usage text assembled from the registered flags.
  std::string helpText(const std::string& program) const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string value;  // canonical textual form
    std::string help;
  };

  Status setValue(const std::string& name, const std::string& text);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace rap::util
