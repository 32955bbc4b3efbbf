"""Setup script.

Packaging metadata lives here (rather than in ``pyproject.toml``'s
``[project]`` table) so that ``pip install -e .`` works in fully offline
environments: the legacy ``setup.py develop`` path needs neither network
access nor the ``wheel`` package.

The version has one source, ``__version__`` in ``src/repro/__init__.py``;
it is read as text so that building never imports the package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$', _INIT.read_text(encoding="utf-8"), re.M
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'When Can We Trust Progress Estimators for SQL "
        "Queries?' (SIGMOD 2005): a pure-Python iterator-model query engine "
        "with instrumented progress estimators (dne, pmax, safe)."
    ),
    author="repro contributors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # NumPy is optional at run time (engine="columnar" resolves to "fused"
    # without it) but the test suites exercise the columnar engine.
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "numpy"],
    },
)
