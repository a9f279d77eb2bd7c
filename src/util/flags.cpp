#include "util/flags.h"

#include <sstream>

#include "util/strings.h"

namespace rap::util {

void FlagParser::addString(const std::string& name, std::string default_value,
                           std::string help) {
  flags_[name] = Flag{Type::kString, std::move(default_value), std::move(help)};
}

void FlagParser::addInt(const std::string& name, std::int64_t default_value,
                        std::string help) {
  flags_[name] =
      Flag{Type::kInt, std::to_string(default_value), std::move(help)};
}

void FlagParser::addDouble(const std::string& name, double default_value,
                           std::string help) {
  std::ostringstream oss;
  oss << default_value;
  flags_[name] = Flag{Type::kDouble, oss.str(), std::move(help)};
}

void FlagParser::addBool(const std::string& name, bool default_value,
                         std::string help) {
  flags_[name] =
      Flag{Type::kBool, default_value ? "true" : "false", std::move(help)};
}

Status FlagParser::setValue(const std::string& name, const std::string& text) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::invalidArgument("unknown flag --" + name);
  }
  switch (it->second.type) {
    case Type::kInt: {
      auto parsed = parseInt(text);
      if (!parsed) return Status::invalidArgument("--" + name + ": " +
                                                  parsed.status().message());
      break;
    }
    case Type::kDouble: {
      auto parsed = parseDouble(text);
      if (!parsed) return Status::invalidArgument("--" + name + ": " +
                                                  parsed.status().message());
      break;
    }
    case Type::kBool: {
      const std::string low = toLower(text);
      if (low != "true" && low != "false" && low != "0" && low != "1") {
        return Status::invalidArgument("--" + name + ": expected bool, got '" +
                                       text + "'");
      }
      it->second.value = (low == "true" || low == "1") ? "true" : "false";
      return Status::ok();
    }
    case Type::kString:
      break;
  }
  it->second.value = text;
  return Status::ok();
}

Status FlagParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!startsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      RAP_RETURN_IF_ERROR(
          setValue(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1))));
      continue;
    }
    const std::string name(arg);
    auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::invalidArgument("unknown flag --" + name);
    }
    if (it->second.type == Type::kBool) {
      // A literal bool right after the switch is its value (--json false);
      // anything else is a positional and the switch means true.
      if (i + 1 < argc) {
        const std::string next = toLower(argv[i + 1]);
        if (next == "true" || next == "false" || next == "0" || next == "1") {
          RAP_RETURN_IF_ERROR(setValue(name, argv[++i]));
          continue;
        }
      }
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      return Status::invalidArgument("--" + name + " requires a value");
    }
    RAP_RETURN_IF_ERROR(setValue(name, argv[++i]));
  }
  return Status::ok();
}

std::string FlagParser::getString(const std::string& name) const {
  auto it = flags_.find(name);
  RAP_CHECK_MSG(it != flags_.end(), "unregistered flag --" << name);
  return it->second.value;
}

std::int64_t FlagParser::getInt(const std::string& name) const {
  return parseInt(getString(name)).value();
}

double FlagParser::getDouble(const std::string& name) const {
  return parseDouble(getString(name)).value();
}

bool FlagParser::getBool(const std::string& name) const {
  return getString(name) == "true";
}

std::string FlagParser::helpText(const std::string& program) const {
  std::ostringstream oss;
  oss << "Usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    oss << "  --" << name << " (default: " << flag.value << ")\n      "
        << flag.help << "\n";
  }
  return oss.str();
}

}  // namespace rap::util
