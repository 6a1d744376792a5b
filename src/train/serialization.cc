#include "train/serialization.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lasagne {
namespace {

inline void CountCheckpoint(const char* name) {
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry::Global().GetCounter(name).Increment();
  }
}

// -- Bitwise-exact float encoding ------------------------------------------
// Tensor entries round-trip through their IEEE-754 bit patterns so a
// resumed run sees exactly the values it checkpointed (decimal text at
// any precision cannot guarantee that for float32).

uint32_t FloatBits(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

float FloatFromBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

uint64_t DoubleBits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

double DoubleFromBits(uint64_t u) {
  double d;
  std::memcpy(&d, &u, sizeof(d));
  return d;
}

void AppendHex32(std::string& out, uint32_t u) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", u);
  out += buf;
}

void AppendHex64(std::string& out, uint64_t u) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(u));
  out += buf;
}

Status ReadHex64(std::istream& in, const char* what, uint64_t* value) {
  std::string token;
  if (!(in >> token)) {
    return DataLossError(std::string("checkpoint ends before ") + what);
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long parsed = std::strtoull(token.c_str(), &end, 16);
  if (errno != 0 || end == token.c_str() || *end != '\0') {
    return DataLossError(std::string("malformed hex token for ") + what +
                         ": '" + token + "'");
  }
  *value = parsed;
  return Status::OK();
}

Status ReadSize(std::istream& in, const char* what, size_t* value) {
  if (!(in >> *value)) {
    return DataLossError(std::string("checkpoint ends before ") + what);
  }
  return Status::OK();
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendTensor(std::string& out, const Tensor& t) {
  out += std::to_string(t.rows());
  out += ' ';
  out += std::to_string(t.cols());
  out += '\n';
  for (size_t i = 0; i < t.size(); ++i) {
    AppendHex32(out, FloatBits(t.data()[i]));
    out += (i + 1 == t.size()) ? '\n' : ' ';
  }
  if (t.size() == 0) out += '\n';
}

/// Reads one tensor written by AppendTensor into `t`, which must
/// already have the expected shape (`context` names it in errors).
Status ReadTensorInto(std::istream& in, const std::string& context,
                      Tensor& t) {
  size_t rows = 0, cols = 0;
  LASAGNE_RETURN_IF_ERROR(ReadSize(in, "tensor rows", &rows));
  LASAGNE_RETURN_IF_ERROR(ReadSize(in, "tensor cols", &cols));
  if (rows != t.rows() || cols != t.cols()) {
    return InvalidArgumentError(
        context + " shape mismatch: checkpoint has " + std::to_string(rows) +
        "x" + std::to_string(cols) + ", expected " +
        std::to_string(t.rows()) + "x" + std::to_string(t.cols()));
  }
  for (size_t i = 0; i < t.size(); ++i) {
    uint64_t bits = 0;
    LASAGNE_RETURN_IF_ERROR(ReadHex64(in, "tensor entry", &bits));
    t.data()[i] = FloatFromBits(static_cast<uint32_t>(bits));
  }
  return Status::OK();
}

// -- Crash-safe file write -------------------------------------------------

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return IOError("open " + tmp + ": " + std::strerror(errno));
  }

  size_t limit = contents.size();
  size_t injected_cutoff = 0;
  const bool injected =
      FaultInjector::Global().ConsumeWriteFailure(&injected_cutoff);
  if (injected && injected_cutoff < limit) limit = injected_cutoff;

  size_t written = 0;
  while (written < limit) {
    ssize_t n = ::write(fd, contents.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status status = IOError("write " + tmp + ": " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    written += static_cast<size_t>(n);
  }
  if (injected) {
    // Simulated crash/full-disk: leave the torn temp file behind, as a
    // real crash would, and never touch the destination path.
    ::close(fd);
    return IOError("injected write failure after " + std::to_string(limit) +
                   " bytes (torn temp file at " + tmp + ")");
  }
  if (::fsync(fd) != 0) {
    Status status = IOError("fsync " + tmp + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::close(fd) != 0) {
    return IOError("close " + tmp + ": " + std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return IOError("rename " + tmp + " -> " + path + ": " +
                   std::strerror(errno));
  }
  return Status::OK();
}

Status CheckParamShapes(const std::vector<ag::Variable>& params,
                        size_t count) {
  if (count != params.size()) {
    return InvalidArgumentError(
        "checkpoint holds " + std::to_string(count) + " tensors, model has " +
        std::to_string(params.size()) + " parameters");
  }
  return Status::OK();
}

// -- v1 loader (legacy decimal text format) --------------------------------

Status LoadV1Payload(std::istream& in,
                     const std::vector<ag::Variable>& params) {
  size_t count = 0;
  LASAGNE_RETURN_IF_ERROR(ReadSize(in, "tensor count", &count));
  LASAGNE_RETURN_IF_ERROR(CheckParamShapes(params, count));
  for (const ag::Variable& p : params) {
    size_t rows = 0, cols = 0;
    LASAGNE_RETURN_IF_ERROR(ReadSize(in, "tensor rows", &rows));
    LASAGNE_RETURN_IF_ERROR(ReadSize(in, "tensor cols", &cols));
    Tensor& t = p->mutable_value();
    if (rows != t.rows() || cols != t.cols()) {
      return InvalidArgumentError(
          "parameter shape mismatch: checkpoint has " +
          std::to_string(rows) + "x" + std::to_string(cols) + ", expected " +
          std::to_string(t.rows()) + "x" + std::to_string(t.cols()));
    }
    for (size_t i = 0; i < t.size(); ++i) {
      if (!(in >> t.data()[i])) {
        return DataLossError("v1 checkpoint truncated mid-tensor");
      }
    }
  }
  return Status::OK();
}

Status LoadV2Payload(const std::string& payload,
                     const std::vector<ag::Variable>& params,
                     TrainerState* trainer_state) {
  std::istringstream in(payload);
  std::string section;

  if (!(in >> section) || section != "tensors") {
    return DataLossError("v2 payload does not start with 'tensors'");
  }
  size_t count = 0;
  LASAGNE_RETURN_IF_ERROR(ReadSize(in, "tensor count", &count));
  LASAGNE_RETURN_IF_ERROR(CheckParamShapes(params, count));
  for (size_t i = 0; i < params.size(); ++i) {
    LASAGNE_RETURN_IF_ERROR(ReadTensorInto(
        in, "parameter " + std::to_string(i), params[i]->mutable_value()));
  }

  TrainerState state;

  if (!(in >> section) || section != "optimizer") {
    return DataLossError("v2 payload missing 'optimizer' section");
  }
  std::string kind;
  if (!(in >> kind)) return DataLossError("optimizer section truncated");
  if (kind == "adam") {
    state.has_optimizer = true;
    LASAGNE_RETURN_IF_ERROR(
        ReadSize(in, "adam step count", &state.adam.step_count));
    state.adam.m.reserve(params.size());
    state.adam.v.reserve(params.size());
    for (int moment = 0; moment < 2; ++moment) {
      for (size_t i = 0; i < params.size(); ++i) {
        Tensor t(params[i]->rows(), params[i]->cols());
        LASAGNE_RETURN_IF_ERROR(ReadTensorInto(
            in, "adam moment for parameter " + std::to_string(i), t));
        (moment == 0 ? state.adam.m : state.adam.v).push_back(std::move(t));
      }
    }
  } else if (kind != "none") {
    return DataLossError("unknown optimizer kind: '" + kind + "'");
  }

  if (!(in >> section) || section != "trainer") {
    return DataLossError("v2 payload missing 'trainer' section");
  }
  if (!(in >> kind)) return DataLossError("trainer section truncated");
  if (kind == "state") {
    uint64_t best_bits = 0, lr_bits = 0;
    LASAGNE_RETURN_IF_ERROR(ReadSize(in, "next epoch", &state.next_epoch));
    LASAGNE_RETURN_IF_ERROR(
        ReadSize(in, "epochs since best", &state.epochs_since_best));
    LASAGNE_RETURN_IF_ERROR(ReadHex64(in, "best val accuracy", &best_bits));
    LASAGNE_RETURN_IF_ERROR(ReadHex64(in, "learning rate", &lr_bits));
    state.best_val_accuracy = DoubleFromBits(best_bits);
    state.learning_rate = FloatFromBits(static_cast<uint32_t>(lr_bits));
  } else if (kind != "none") {
    return DataLossError("unknown trainer section kind: '" + kind + "'");
  }

  // 'best' is optional: files written before it existed go straight to
  // 'rng'.
  if (!(in >> section)) section.clear();
  if (section == "best") {
    LASAGNE_RETURN_IF_ERROR(ReadSize(in, "best parameter count", &count));
    LASAGNE_RETURN_IF_ERROR(CheckParamShapes(params, count));
    state.best_params.reserve(params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      Tensor t(params[i]->rows(), params[i]->cols());
      LASAGNE_RETURN_IF_ERROR(
          ReadTensorInto(in, "best parameter " + std::to_string(i), t));
      state.best_params.push_back(std::move(t));
    }
    if (!(in >> section)) section.clear();
  }
  if (section != "rng") {
    return DataLossError("v2 payload missing 'rng' section");
  }
  if (!(in >> kind)) return DataLossError("rng section truncated");
  if (kind == "state") {
    state.has_rng = true;
    uint64_t rng_bits = 0, cached_bits = 0;
    int has_cached = 0;
    LASAGNE_RETURN_IF_ERROR(ReadHex64(in, "rng state", &rng_bits));
    if (!(in >> has_cached)) return DataLossError("rng section truncated");
    LASAGNE_RETURN_IF_ERROR(ReadHex64(in, "rng cached normal", &cached_bits));
    state.rng.state = rng_bits;
    state.rng.has_cached_normal = has_cached != 0;
    state.rng.cached_normal = DoubleFromBits(cached_bits);
  } else if (kind != "none") {
    return DataLossError("unknown rng section kind: '" + kind + "'");
  }

  if (!(in >> section) || section != "end") {
    return DataLossError("v2 payload missing 'end' marker");
  }

  if (trainer_state != nullptr) *trainer_state = std::move(state);
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const std::vector<ag::Variable>& params,
                      const TrainerState* trainer_state,
                      const std::string& path) {
  LASAGNE_TRACE_SCOPE("checkpoint.save");
  CountCheckpoint("checkpoint.saves");
  std::string payload;
  payload += "tensors " + std::to_string(params.size()) + "\n";
  for (const ag::Variable& p : params) AppendTensor(payload, p->value());

  if (trainer_state != nullptr && trainer_state->has_optimizer) {
    const AdamState& adam = trainer_state->adam;
    if (adam.m.size() != params.size() || adam.v.size() != params.size()) {
      return InvalidArgumentError(
          "trainer state Adam moments do not match parameter count");
    }
    payload +=
        "optimizer adam " + std::to_string(adam.step_count) + "\n";
    for (const Tensor& t : adam.m) AppendTensor(payload, t);
    for (const Tensor& t : adam.v) AppendTensor(payload, t);
  } else {
    payload += "optimizer none\n";
  }

  if (trainer_state != nullptr) {
    payload += "trainer state " + std::to_string(trainer_state->next_epoch) +
               " " + std::to_string(trainer_state->epochs_since_best) + " ";
    AppendHex64(payload, DoubleBits(trainer_state->best_val_accuracy));
    payload += ' ';
    AppendHex32(payload, FloatBits(trainer_state->learning_rate));
    payload += '\n';
  } else {
    payload += "trainer none\n";
  }

  if (trainer_state != nullptr && !trainer_state->best_params.empty()) {
    if (trainer_state->best_params.size() != params.size()) {
      return InvalidArgumentError(
          "trainer state best parameters do not match parameter count");
    }
    payload +=
        "best " + std::to_string(trainer_state->best_params.size()) + "\n";
    for (const Tensor& t : trainer_state->best_params) AppendTensor(payload, t);
  }

  if (trainer_state != nullptr && trainer_state->has_rng) {
    payload += "rng state ";
    AppendHex64(payload, trainer_state->rng.state);
    payload += trainer_state->rng.has_cached_normal ? " 1 " : " 0 ";
    AppendHex64(payload, DoubleBits(trainer_state->rng.cached_normal));
    payload += '\n';
  } else {
    payload += "rng none\n";
  }
  payload += "end\n";

  std::string file = "lasagne-checkpoint v2 ";
  AppendHex64(file, Fnv1a64(payload));
  file += ' ';
  file += std::to_string(payload.size());
  file += '\n';
  file += payload;
  return WriteFileAtomic(path, file).WithContext("saving checkpoint " + path);
}

Status LoadCheckpoint(const std::vector<ag::Variable>& params,
                      TrainerState* trainer_state,
                      const std::string& path) {
  LASAGNE_TRACE_SCOPE("checkpoint.load");
  CountCheckpoint("checkpoint.loads");
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open checkpoint " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string file = buffer.str();

  std::istringstream header(file);
  std::string magic, version;
  if (!(header >> magic >> version) || magic != "lasagne-checkpoint") {
    return DataLossError(path + " is not a lasagne checkpoint");
  }

  if (version == "v1") {
    if (trainer_state != nullptr) *trainer_state = TrainerState();
    return LoadV1Payload(header, params).WithContext("loading " + path);
  }
  if (version != "v2") {
    return DataLossError("unsupported checkpoint version '" + version +
                         "' in " + path);
  }

  uint64_t expected_checksum = 0;
  size_t payload_bytes = 0;
  Status header_status = ReadHex64(header, "checksum", &expected_checksum);
  if (header_status.ok()) {
    header_status = ReadSize(header, "payload size", &payload_bytes);
  }
  LASAGNE_RETURN_IF_ERROR(header_status.WithContext("loading " + path));

  const size_t payload_start = file.find('\n');
  if (payload_start == std::string::npos) {
    return DataLossError(path + ": header line has no terminator");
  }
  const std::string payload = file.substr(payload_start + 1);
  if (payload.size() != payload_bytes) {
    return DataLossError(path + ": payload is " +
                         std::to_string(payload.size()) +
                         " bytes, header declares " +
                         std::to_string(payload_bytes) +
                         (payload.size() < payload_bytes ? " (truncated?)"
                                                         : ""));
  }
  const uint64_t actual_checksum = Fnv1a64(payload);
  if (actual_checksum != expected_checksum) {
    return DataLossError(path + ": checksum mismatch (file is corrupt)");
  }
  return LoadV2Payload(payload, params, trainer_state)
      .WithContext("loading " + path);
}

Status SaveModelCheckpoint(const Model& model, const std::string& path) {
  return SaveCheckpoint(model.Parameters(), nullptr, path);
}

Status LoadModelCheckpoint(Model& model, const std::string& path) {
  return LoadCheckpoint(model.Parameters(), nullptr, path);
}

bool SaveParameters(const std::vector<ag::Variable>& params,
                    const std::string& path) {
  return SaveCheckpoint(params, nullptr, path).ok();
}

bool SaveModel(const Model& model, const std::string& path) {
  return SaveModelCheckpoint(model, path).ok();
}

bool LoadParameters(const std::vector<ag::Variable>& params,
                    const std::string& path) {
  return LoadCheckpoint(params, nullptr, path).ok();
}

bool LoadModel(Model& model, const std::string& path) {
  return LoadModelCheckpoint(model, path).ok();
}

}  // namespace lasagne
