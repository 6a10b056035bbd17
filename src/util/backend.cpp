#include "util/backend.h"

#include <cstdlib>

#include "util/error.h"
#include "util/log.h"

namespace pviz::exec {

namespace {

BackendKind readEnvDefault() {
  const char* env = std::getenv("POWERVIZ_BACKEND");
  if (env == nullptr || *env == '\0') return BackendKind::Threaded;
  try {
    return parseBackendToken(env);
  } catch (const Error& e) {
    PVIZ_LOG_WARN("ignoring POWERVIZ_BACKEND: " << e.what());
    return BackendKind::Threaded;
  }
}

}  // namespace

const char* backendToken(BackendKind kind) {
  switch (kind) {
    case BackendKind::Serial: return "serial";
    case BackendKind::Threaded: return "threaded";
  }
  return "?";
}

BackendKind parseBackendToken(const std::string& token) {
  for (BackendKind kind : {BackendKind::Serial, BackendKind::Threaded}) {
    if (token == backendToken(kind)) return kind;
  }
  throw Error("unknown backend '" + token +
              "' (expected serial threaded)");
}

BackendKind defaultBackendKind() noexcept {
  static const BackendKind kind = readEnvDefault();
  return kind;
}

}  // namespace pviz::exec
