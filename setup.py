"""Packaging metadata for the ``repro`` package (sources under ``src/``).

Install in development mode with ``python setup.py develop``, or skip
installing and run from a checkout with ``PYTHONPATH=src``.
``pip install -e .`` additionally needs the ``wheel`` package.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("DeLTA: analytic GPU performance model for deep learning "
                 "with in-depth memory system traffic analysis"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
