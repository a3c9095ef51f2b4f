"""Setuptools entry point: the ``repro`` package under ``src/``.

The only packaging file in the repository.  ``pip install -e .`` installs
``repro`` and its subpackages, so ``python -m repro`` and the tests run
without ``PYTHONPATH=src``.  Offline environments that lack the ``wheel``
package can use a legacy editable install (``--no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "PALMED reproduction: throughput characterization of superscalar "
        "architectures as conjunctive resource mappings"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
