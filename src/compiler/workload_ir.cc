/**
 * @file
 * Implementation of WorkloadIR helpers.
 */

#include "compiler/workload_ir.h"

namespace cq::compiler {

Task
Task::make(GemmTask t)
{
    Task task;
    task.kind = Kind::Gemm;
    task.gemm = std::move(t);
    return task;
}

Task
Task::make(StreamTask t)
{
    Task task;
    task.kind = Kind::Stream;
    task.stream = std::move(t);
    return task;
}

Task
Task::make(UpdateTask t)
{
    Task task;
    task.kind = Kind::Update;
    task.update = std::move(t);
    return task;
}

Task
Task::make(AliasTask t)
{
    Task task;
    task.kind = Kind::Alias;
    task.alias = std::move(t);
    return task;
}

const std::string &
Task::layer() const
{
    switch (kind) {
      case Kind::Gemm:   return gemm.layer;
      case Kind::Stream: return stream.layer;
      case Kind::Update: return update.layer;
      case Kind::Alias:  break;
    }
    return alias.outTensor;
}

void
WorkloadIR::finalize()
{
    totalWeights = 0;
    totalMacs = 0;
    sfuOps = 0;
    for (const auto &task : tasks) {
        switch (task.kind) {
          case Task::Kind::Gemm:
            totalMacs += task.gemm.macs();
            break;
          case Task::Kind::Stream:
            sfuOps += task.stream.sfuOps;
            break;
          case Task::Kind::Update:
            totalWeights += task.update.numWeights;
            break;
          case Task::Kind::Alias:
            break;
        }
    }
}

std::uint64_t
WorkloadIR::macsInPhase(arch::Phase phase) const
{
    std::uint64_t macs = 0;
    for (const auto &task : tasks)
        if (task.kind == Task::Kind::Gemm && task.gemm.phase == phase)
            macs += task.gemm.macs();
    return macs;
}

} // namespace cq::compiler
