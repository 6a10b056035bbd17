// The execution choice behind the worklet dispatch: which threads run a
// chunked loop.  The choice is a value on the ExecutionContext, made once
// at the edge (a tool's flag, the service engine, a request field) and
// read by the one branch in util/parallel.h — the VTK-m device-adapter
// split, and the two execution strategies Bethel et al. compare:
//
//   serial      every chunk runs in order on the calling thread and the
//               pool is never touched.  The reference: determinism
//               suites compare the threaded output against it byte for
//               byte.
//   threaded    chunks are handed to the context's ThreadPool (the
//               default).
//
// The kind chooses only who runs a chunk, never how a chunk is computed:
// every kernel has exactly one inner loop, so outputs are bit-identical
// on both kinds by construction.  Selection precedence, highest first:
//
//   1. per-request: the service protocol's `backend` field,
//   2. per-process: `--backend` on the tools / EngineConfig::backend,
//   3. environment: POWERVIZ_BACKEND=serial|threaded,
//   4. built-in default: threaded.
#pragma once

#include <string>

namespace pviz::exec {

enum class BackendKind { Serial, Threaded };

/// Wire/CLI token for a backend kind ("serial", "threaded").
const char* backendToken(BackendKind kind);
/// Parse a token; throws pviz::Error naming the valid tokens.
BackendKind parseBackendToken(const std::string& token);

/// The process default: POWERVIZ_BACKEND when set (a bad value falls
/// back to threaded with a warning, so a typo cannot change results or
/// crash a service at boot), else threaded.  Read once and cached.
BackendKind defaultBackendKind() noexcept;

}  // namespace pviz::exec
