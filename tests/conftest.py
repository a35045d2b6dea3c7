import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


class Executions(list):
    """One entry per Ray Data execution started on the driver: the
    (name, is all-to-all) pair of every operator in its DAG."""

    @property
    def all_to_all(self) -> list[str]:
        """The names of the all-to-all operators (sort, aggregate,
        repartition) that ran."""
        return [name for ops in self for name, is_all_to_all in ops if is_all_to_all]


@pytest.fixture
def executions(monkeypatch):
    """Records every Ray Data execution started on the driver."""
    from ray.data._internal.execution.operators.base_physical_operator import (
        AllToAllOperator,
    )
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    started = Executions()
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        ops, stack = [], [dag]
        while stack:
            op = stack.pop()
            ops.append((op.name, isinstance(op, AllToAllOperator)))
            stack.extend(op.input_dependencies)
        started.append(ops)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", recording)
    return started
