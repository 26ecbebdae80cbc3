"""PKL rule tests: picklability across process-pool boundaries."""

from repro.lint import run_lint

from .conftest import rules_of

POOL_IMPORT = "from concurrent.futures import ProcessPoolExecutor\n"


class TestPKL001:
    def test_lambda_literal_in_submit(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run():\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(lambda: 1)\n",
        )
        assert rules_of(result) == ["PKL001"]

    def test_lambda_bound_name_in_map(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(items):\n"
            "    work = lambda x: x + 1\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.map(work, items)\n",
        )
        assert rules_of(result) == ["PKL001"]
        assert result.diagnostics[0].nodes == ("work",)

    def test_closure_in_submit(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run():\n"
            "    def inner():\n"
            "        return 1\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(inner)\n",
        )
        assert rules_of(result) == ["PKL001"]

    def test_lambda_initializer(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run():\n"
            "    pool = ProcessPoolExecutor(initializer=lambda: None)\n",
        )
        assert rules_of(result) == ["PKL001"]

    def test_module_level_function_is_clean(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def work(x):\n"
            "    return x\n"
            "def run(items):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.map(work, items)\n",
        )
        assert result.diagnostics == []

    def test_allow_comment_suppresses(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run():\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(lambda: 1)  # lint: allow[PKL001]\n",
        )
        assert result.diagnostics == []
        assert result.suppressed == {"PKL001": 1}


class TestPKL002:
    ENGINE_IMPORT = "from repro.core.engines.base import Engine\n"

    def test_engine_annotated_param_in_submit(self, lint_source):
        result = lint_source(
            POOL_IMPORT + self.ENGINE_IMPORT +
            "def run(engine: Engine, solve):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(solve, engine)\n",
        )
        assert rules_of(result) == ["PKL002"]
        assert result.diagnostics[0].nodes == ("engine",)

    def test_resolve_engine_binding_in_submit(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "from repro.core.engines.registry import resolve_engine\n"
            "def run(spec, solve):\n"
            "    engine = resolve_engine(spec)\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(solve, engine)\n",
        )
        assert rules_of(result) == ["PKL002"]

    def test_opaque_spec_argument_is_clean(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(spec, solve):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(solve, spec)\n",
        )
        assert result.diagnostics == []

    def test_allow_comment_suppresses(self, lint_source):
        result = lint_source(
            POOL_IMPORT + self.ENGINE_IMPORT +
            "def run(engine: Engine, solve):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(solve, engine)  # lint: allow[PKL002]\n",
        )
        assert result.diagnostics == []
        assert result.suppressed == {"PKL002": 1}


class TestPKL003:
    def test_open_handle_binding_in_submit(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(parse):\n"
            "    handle = open('data.txt')\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(parse, handle)\n",
        )
        assert rules_of(result) == ["PKL003"]

    def test_inline_sqlite_connect_in_initargs(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "import sqlite3\n"
            "def setup(db):\n"
            "    pass\n"
            "def run():\n"
            "    pool = ProcessPoolExecutor(\n"
            "        initializer=setup,\n"
            "        initargs=(sqlite3.connect('db.sqlite'),),\n"
            "    )\n",
        )
        assert rules_of(result) == ["PKL003"]

    def test_with_bound_handle_in_submit(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(parse):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    with open('data.txt') as fh:\n"
            "        pool.submit(parse, fh)\n",
        )
        assert rules_of(result) == ["PKL003"]

    def test_path_string_is_clean(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(parse):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(parse, 'data.txt')\n",
        )
        assert result.diagnostics == []

    def test_allow_comment_suppresses(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(parse):\n"
            "    handle = open('data.txt')\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(parse, handle)  # lint: allow[PKL]\n",
        )
        assert result.diagnostics == []
        assert result.suppressed == {"PKL003": 1}


class TestPKL004:
    SHM_IMPORT = (
        "from multiprocessing.shared_memory import SharedMemory\n"
    )

    def test_raw_constructor_outside_arena_module(self, lint_source):
        result = lint_source(
            self.SHM_IMPORT +
            "def grab():\n"
            "    return SharedMemory(create=True, size=64)\n",
        )
        assert rules_of(result) == ["PKL004"]

    def test_no_module_is_exempt(self, tmp_path):
        # The process pool pickles batches; no module owns raw
        # segments, not even one named like the old arena module.
        package = tmp_path / "repro" / "service"
        package.mkdir(parents=True)
        for init in (tmp_path / "repro", package):
            (init / "__init__.py").write_text("", encoding="utf-8")
        module = package / "arena.py"
        module.write_text(
            self.SHM_IMPORT +
            "def grab():\n"
            "    return SharedMemory(create=True, size=64)\n",
            encoding="utf-8",
        )
        result = run_lint([module], record_telemetry=False, root=tmp_path)
        assert rules_of(result) == ["PKL004"]
        assert "process_pool" in result.diagnostics[0].hint

    def test_via_module_alias(self, lint_source):
        result = lint_source(
            "from multiprocessing import shared_memory\n"
            "def grab():\n"
            "    return shared_memory.SharedMemory(name='seg')\n",
        )
        assert rules_of(result) == ["PKL004"]

    def test_segment_across_pool_boundary(self, lint_source):
        result = lint_source(
            POOL_IMPORT + self.SHM_IMPORT +
            "def run(worker):\n"
            "    seg = SharedMemory(create=True, size=64)"
            "  # lint: allow[PKL004]\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(worker, seg)\n",
        )
        assert rules_of(result) == ["PKL004"]
        assert result.diagnostics[0].nodes == ("seg",)

    def test_handle_dataclass_is_clean(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(worker, handle):\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(worker, handle)\n",
        )
        assert result.diagnostics == []

    def test_allow_comment_suppresses(self, lint_source):
        result = lint_source(
            self.SHM_IMPORT +
            "def grab():\n"
            "    return SharedMemory(create=True)  # lint: allow[PKL004]\n",
        )
        assert result.diagnostics == []
        assert result.suppressed == {"PKL004": 1}


class TestProcessWorkerSurface:
    """The service's process-transport submit surfaces (PR 9)."""

    def test_self_attribute_pool_submit(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "class Transport:\n"
            "    def __init__(self):\n"
            "        self._pool = ProcessPoolExecutor()\n"
            "    def go(self):\n"
            "        return self._pool.submit(lambda: 1)\n",
        )
        assert rules_of(result) == ["PKL001"]

    def test_run_in_executor_with_engine(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "from repro.core.engines.base import Engine\n"
            "class Transport:\n"
            "    def __init__(self):\n"
            "        self._pool = ProcessPoolExecutor()\n"
            "    async def go(self, loop, engine: Engine, solve):\n"
            "        return await loop.run_in_executor(\n"
            "            self._pool, solve, engine)\n",
        )
        assert rules_of(result) == ["PKL002"]
        assert result.diagnostics[0].nodes == ("engine",)

    def test_run_in_executor_specs_and_handles_clean(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def solve(spec, payload, handle):\n"
            "    return None\n"
            "class Transport:\n"
            "    def __init__(self):\n"
            "        self._pool = ProcessPoolExecutor()\n"
            "    async def go(self, loop, spec, payload, handle):\n"
            "        return await loop.run_in_executor(\n"
            "            self._pool, solve, spec, payload, handle)\n",
        )
        assert result.diagnostics == []

    def test_run_in_executor_on_thread_pool_is_clean(self, lint_source):
        result = lint_source(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "class Transport:\n"
            "    def __init__(self):\n"
            "        self._pool = ThreadPoolExecutor()\n"
            "    async def go(self, loop, engine):\n"
            "        return await loop.run_in_executor(\n"
            "            self._pool, engine.measure_batch, [])\n",
        )
        assert result.diagnostics == []


class TestProcessPoolFactory:
    """Pools built by ``repro.service.procworker.process_pool``."""

    FACTORY_IMPORT = "from repro.service.procworker import process_pool\n"

    def test_lambda_in_submit(self, lint_source):
        result = lint_source(
            self.FACTORY_IMPORT +
            "def run():\n"
            "    with process_pool(2, print) as pool:\n"
            "        pool.submit(lambda x: x, 1)\n",
        )
        assert rules_of(result) == ["PKL001"]

    def test_positional_lambda_initializer(self, lint_source):
        result = lint_source(
            self.FACTORY_IMPORT +
            "def run():\n"
            "    return process_pool(2, lambda: None)\n",
        )
        assert rules_of(result) == ["PKL001"]

    def test_positional_handle_in_initargs(self, lint_source):
        result = lint_source(
            self.FACTORY_IMPORT +
            "import sqlite3\n"
            "def setup(db):\n"
            "    pass\n"
            "def run():\n"
            "    return process_pool(2, setup, (sqlite3.connect('x'),))\n",
        )
        assert rules_of(result) == ["PKL003"]

    def test_module_level_initializer_is_clean(self, lint_source):
        result = lint_source(
            self.FACTORY_IMPORT +
            "def setup(path):\n"
            "    pass\n"
            "def work(x):\n"
            "    return x\n"
            "def run(path, items):\n"
            "    with process_pool(2, setup, (path,)) as pool:\n"
            "        pool.map(work, items)\n",
        )
        assert result.diagnostics == []

    def test_positional_initializer_of_executor(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run():\n"
            "    return ProcessPoolExecutor(2, None, lambda: None)\n",
        )
        assert rules_of(result) == ["PKL001"]


class TestScoping:
    def test_thread_pool_is_not_a_pickle_boundary(self, lint_source):
        result = lint_source(
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def run():\n"
            "    pool = ThreadPoolExecutor()\n"
            "    pool.submit(lambda: 1)\n",
        )
        assert "PKL001" not in rules_of(result)

    def test_rebinding_clears_the_kind(self, lint_source):
        result = lint_source(
            POOL_IMPORT +
            "def run(parse, reopen):\n"
            "    handle = open('data.txt')\n"
            "    handle = reopen()\n"
            "    pool = ProcessPoolExecutor()\n"
            "    pool.submit(parse, handle)\n",
        )
        assert result.diagnostics == []
