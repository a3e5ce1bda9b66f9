"""Packaging for the ``repro`` library, whose sources live under ``src/``.

``pip install -e .`` makes ``import repro`` work without
``PYTHONPATH=src``; the tests and scripts also run straight from a
checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
